"""Print how the fit kernel routes the samples of the standard scenarios.

Usage, from the repository root::

    python tools/route_census.py [--n 1000] [--reps 32] [--seed 3]

For scenarios 1-4 at n rows (default 1000, the acceptance size; scenarios
1 and 2 at pi = 0.5) and the ANOVA, ANCOVA and ANHECOVA models, it draws
``--reps`` replications as ``run_grid`` does, fits each model to all of
them in one stacked call and prints, per scenario and model, the
quantiles of κ = s_max/s_min of each sample's (square-root-weighted)
design in its final solve (for scenario 2's Poisson fits, the last IRLS
step) and the share of samples on each route of ``estimate._solve``:
the Gram route at κ < 10, the Gram route at 10 <= κ < GRAM_RTOL^-1/2
and the SVD (which also takes the samples that fail). Only the standard
library and numpy are used; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linadjust import named_spec, scenario  # noqa: E402
from linadjust.estimate import GRAM_RTOL, _fit  # noqa: E402
from linadjust.sim import _digest, _draw_stack, _rep_states  # noqa: E402

MODELS = ("ANOVA", "ANCOVA", "ANHECOVA")
QUANTILES = (0.0, 0.5, 0.9, 1.0)


def census(sid: int, n: int, reps: int, seed: int) -> list[tuple[str, np.ndarray]]:
    """Per model, the condition number of each replication's final solve (NaN if it failed)."""
    scn = scenario(sid, n=n)
    pi = 0.5 if sid in (1, 2) else None
    stack = _draw_stack(scn, pi, _rep_states(seed, _digest(f"scenario={sid}|pi={pi}|n={n}"), 0, reps))
    family = "poisson" if sid == 2 else "gaussian"
    out = []
    for model in MODELS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a clamped standard error does not matter here
            fits = _fit(named_spec(model, 1), stack, family)
        out.append((model, fits.condition))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=32)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    limit = GRAM_RTOL**-0.5
    head = " ".join(f"{f'k q{int(100 * q)}':>8}" for q in QUANTILES)
    print(f"GRAM_RTOL = {GRAM_RTOL:g}: the Gram route takes kappa < {limit:g}")
    print(f"n = {args.n}, {args.reps} replications, seed {args.seed}")
    print(f"{'scenario':>8} {'model':>9} {head} {'gram<10':>8} {'gram>=10':>8} {'svd':>6}")
    for sid in (1, 2, 3, 4):
        for model, kappa in census(sid, args.n, args.reps, args.seed):
            ok = kappa[np.isfinite(kappa)]
            quants = " ".join(f"{v:8.3g}" for v in np.quantile(ok, QUANTILES)) if ok.size else ""
            low = np.mean(kappa < 10.0)
            gram = np.mean(kappa < limit)
            print(f"{sid:>8} {model:>9} {quants} {low:8.0%} {gram - low:8.0%} {1.0 - gram:6.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
