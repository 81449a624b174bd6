"""Print where the fit kernel and the draw spend their time, stage by stage,
and the minor page faults of each ``run_grid`` call, on the benchmark's chunk
shapes.

Usage, from the repository root::

    python tools/kernel_layers.py [--repeat 30] [--cycles 20] [--seed 7]

Stages. For each chunk shape of the benchmark's workloads (``mc-scenarios``:
scenarios 1-4 at n = 1000, 12 or 16 replications, ANOVA, ANCOVA and
ANHECOVA, scenario 2 by Poisson IRLS; ``mc-n200``: the two counterexample
populations at n = 200, 40 replications, their four models;
``analysis-cli``: one 20,000-row sample with three covariates, plain and
weighted), it draws one chunk as ``run_grid`` does and fits every model to
it with ``estimate._fit`` ``--repeat`` times, each time on a fresh stack,
so the per-stack work (centering, the full-model refit) is paid as
``run_grid`` pays it. The ``analysis-cli`` samples are fitted as a lone
public fit is, with the full covariance (``_fit``'s ``vcov``); the Monte
Carlo chunks without it, as ``run_grid`` fits them. Timers wrapped around
the kernel's functions split each fit into the self time of its stages,
in µs per chunk (all models together, median over the repeats):

- design: ``_design`` and the covariate centering (``_Stack.centered``);
- gram: ``_solve`` itself, mostly ZᵀWZ = (Z·w) @ Zᵀ and the routing;
- eigh: the batched eigendecomposition of the Gram matrices;
- solve: ``_gram_solve`` and ``_svd_solve``;
- residual: ``_fit_linear`` and ``_fit_poisson`` themselves: the
  response, the residual and, for Poisson, the IRLS working response;
- influence: ``_influence``, the influence rows U = B·Z·wε̂: the ATE row
  for every fit, and every row for the lone ``analysis-cli`` fits;
- ate row: the rest of ``_ate_var``, Σ uᵢ² of the ATE row;
- vcov: the rest of ``_vcov``, U·Uᵀ and its symmetrisation; only for the
  lone ``analysis-cli`` fits, "-" on the Monte Carlo chunks;
- penalty: the empirical-centering penalty, ``_Stack.sigma`` and
  ``_penalized`` (the full-model refit it needs is counted in the
  stages above);
- fit: the rest of ``_fit`` (error bookkeeping).

Draw. For each Monte Carlo chunk shape it then times, ``--repeat`` times, the
steps ``run_grid`` takes to draw a chunk, in µs (median over the repeats):

- block: the one ``_rep_states`` call that derives the seeds of a seed block,
  the cell's first SEED_BLOCK replications (the whole cell in the benchmark);
- /chunk: that call's share per chunk of the block; chunk call: a
  ``_rep_states`` call for one chunk's replications alone, for comparison;
- rngs: constructing the chunk's PCG64 generators from their state words;
- fills: the rest of ``_draw_chunk``, the generators' variate fills and the
  law's or the sampler's transforms;
- observe: ``_observe``, the treatment indicators and observed outcomes;
- check: ``_check_samples``, the chunk's validation.

Faults. For each Monte Carlo workload, in a fresh interpreter as a
benchmark worker is, it then runs ``--cycles`` of the benchmark's cycles of
``run_grid`` calls (``mc-scenarios``: scenarios 1, 2, 3, 4 and 1 again;
``mc-n200``: the km call and two io calls), after one warm-up cycle and
with no wrapper, and prints the minor page faults (``resource.getrusage``
of that process) and the wall time per call and per cycle.

Only the standard library and numpy are used; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linadjust import Dataset, custom_scenario, named_spec, parse_formula, run_grid, scenario  # noqa: E402
from linadjust import estimate, sim  # noqa: E402
from linadjust.model import KnownMean, _check_samples  # noqa: E402
from linadjust.population import make_counterexample  # noqa: E402
from linadjust.sim import SEED_BLOCK, _assignment_pi, _chunk_reps, _Derived, _digest, _draw_stack  # noqa: E402
from linadjust.sim import _rep_states  # noqa: E402

STAGES = ("design", "gram", "eigh", "solve", "residual", "influence", "ate row", "vcov", "penalty", "fit")
TIMED = (  # (owner, attribute, stage)
    (estimate, "_design", "design"),
    (estimate._Stack, "centered", "design"),
    (estimate, "_solve", "gram"),
    (np.linalg, "eigh", "eigh"),
    (estimate, "_gram_solve", "solve"),
    (estimate, "_svd_solve", "solve"),
    (estimate, "_fit_linear", "residual"),
    (estimate, "_fit_poisson", "residual"),
    (estimate, "_influence", "influence"),
    (estimate, "_ate_var", "ate row"),
    (estimate, "_vcov", "vcov"),
    (estimate._Stack, "sigma", "penalty"),
    (estimate, "_penalized", "penalty"),
    (estimate, "_fit", "fit"),
)
DRAW_STAGES = ("block", "/chunk", "chunk call", "rngs", "fills", "observe", "check")
DRAW_TIMED = ((sim, "_draw_chunk", "fills"), (sim, "_observe", "observe"))
THREE = tuple(named_spec(m, 1) for m in ("ANOVA", "ANCOVA", "ANHECOVA"))


class Layers:
    """Self time per stage, in ns, of the functions ``timed`` wraps."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)
        self._children: list[int] = []

    def wrap(self, fn, stage: str):
        def timed(*args, **kwargs):
            self._children.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self.ns[stage] += dt - self._children.pop()
                if self._children:
                    self._children[-1] += dt

        return timed


@contextmanager
def timed(layers: Layers, table=TIMED):
    """The functions of ``table`` (the kernel's by default) wrapped by ``layers``
    while the block runs."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in table]
    for (owner, name, fn), (_, _, stage) in zip(saved, table):
        setattr(owner, name, layers.wrap(fn, stage))
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _mc_configs():
    """(label, scenario, pi, replications per call, models, family) per benchmark call kind."""
    km = custom_scenario(make_counterexample("AncovaWorse", 0.3).sampler, pi=0.3, beta_ate=1.0, n=200)
    io = custom_scenario(
        make_counterexample("InteractionsOnlyWorseCentered", 0.75).sampler, pi=0.75, beta_ate=1.0, n=200
    )
    anova = named_spec("ANOVA", 1)
    km_models = tuple(s.with_centering(KnownMean((0.0,))) for s in (anova, named_spec("ANCOVA", 1)))
    io_models = (anova, parse_formula("1 + A + A:X1", ["X1"]))
    return [
        ("mc-scenarios s1", scenario(1, n=1000), 0.5, 12, THREE, "gaussian"),
        ("mc-scenarios s2", scenario(2, n=1000), 0.5, 12, THREE, "poisson"),
        ("mc-scenarios s3", scenario(3, n=1000), None, 35, THREE, "gaussian"),
        ("mc-scenarios s4", scenario(4, n=1000), None, 27, THREE, "gaussian"),
        ("mc-n200 km", km, 0.3, 100, km_models, "gaussian"),
        ("mc-n200 io", io, 0.75, 80, io_models, "gaussian"),
    ]


def _cli_stack(rng, weighted: bool) -> estimate._Stack:
    n = 20_000
    x = rng.standard_normal((n, 3)) @ np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.8]]).T
    a = (rng.random(n) < 0.4).astype(float)
    y = 1.0 + 2.0 * a + x @ [1.0, 0.5, -0.3] + a * (x @ [0.6, -0.4, 0.2]) + rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    return estimate._Stack.one(Dataset(a, x + [1.0, -0.5, 2.0], y, w))


def chunks(seed: int):
    """(label, shape, stack maker, models, family, lone) for every chunk shape measured;
    ``lone`` marks a lone public fit, which forms the full covariance."""
    out = []
    for label, scn, pi, reps, models, family in _mc_configs():
        chunk = min(reps, _chunk_reps(scn.n))
        states = _rep_states(seed, _digest(f"scenario={scn.id}|pi={pi}|n={scn.n}"), 0, chunk)
        st = _draw_stack(scn, _assignment_pi(scn, pi), states)
        fresh = (lambda st=st: estimate._Stack(st.a, st.x, st.y, st.w))
        out.append((label, (chunk, scn.n), fresh, models, family, False))
    rng = np.random.default_rng(seed)
    plain = parse_formula("1 + A + X1 + X2 + X3 + A:X1 + A:X2 + A:X3", ["X1", "X2", "X3"])
    weighted = parse_formula("1 + A + X1 + X2@0.5 + A:X1 + A:X3", ["X1", "X2", "X3"])
    for label, spec, w in (("analysis-cli plain", plain, False), ("analysis-cli weighted", weighted, True)):
        st = _cli_stack(rng, w)
        fresh = (lambda st=st: estimate._Stack(st.a, st.x, st.y, st.w))
        out.append((label, (1, st.n), fresh, (spec,), "gaussian", True))
    return out


def stage_table(seed: int, repeat: int) -> None:
    print(f"Self time per stage of estimate._fit, µs per chunk (median of {repeat}), seed {seed}")
    print(f"{'chunk':<22} {'R x n':>9} " + " ".join(f"{s:>9}" for s in STAGES) + f" {'total':>9}")
    for label, (r, n), fresh, models, family, lone in chunks(seed):
        runs = defaultdict(list)
        for k in range(repeat + 1):
            layers = Layers()
            st = fresh()
            with warnings.catch_warnings(), timed(layers):
                warnings.simplefilter("ignore")  # a clamped standard error does not matter here
                for spec in models:
                    estimate._fit(spec, st, family, vcov=lone)
            if k:  # the first pass warms up
                for stage in layers.ns:
                    runs[stage].append(layers.ns[stage] / 1e3)
                runs["total"].append(sum(layers.ns.values()) / 1e3)
        cells = " ".join(f"{statistics.median(runs[s]):9.0f}" if s in runs else f"{'-':>9}"
                         for s in (*STAGES, "total"))
        print(f"{label:<22} {f'{r}x{n}':>9} {cells}")


def draw_table(seed: int, repeat: int) -> None:
    print(f"\nDraw of one chunk as run_grid draws it, µs (median of {repeat}), seed {seed}")
    print(f"{'chunk':<22} {'R x n':>9} " + " ".join(f"{s:>10}" for s in DRAW_STAGES))
    for label, scn, pi, reps, _, _ in _mc_configs():
        chunk = min(reps, _chunk_reps(scn.n))
        block = min(reps, SEED_BLOCK)
        digest, p = _digest(f"scenario={scn.id}|pi={pi}|n={scn.n}"), _assignment_pi(scn, pi)
        runs = defaultdict(list)
        for k in range(repeat + 1):
            t0 = time.perf_counter_ns()
            _rep_states(seed, digest, 0, block)
            t1 = time.perf_counter_ns()
            states = _rep_states(seed, digest, 0, chunk)
            t2 = time.perf_counter_ns()
            rngs = [np.random.Generator(np.random.PCG64(_Derived(state))) for state in states]
            t3 = time.perf_counter_ns()
            layers = Layers()
            with timed(layers, DRAW_TIMED):
                a, x, y, w, *_ = sim._draw_chunk(scn, p, rngs)
            t4 = time.perf_counter_ns()
            _check_samples(a, x, y, w)
            t5 = time.perf_counter_ns()
            if k:  # the first pass warms up
                times = (t1 - t0, (t1 - t0) * chunk / block, t2 - t1, t3 - t2, layers.ns["fills"],
                         layers.ns["observe"], t5 - t4)
                for stage, ns in zip(DRAW_STAGES, times):
                    runs[stage].append(ns / 1e3)
        cells = " ".join(f"{statistics.median(runs[s]):10.0f}" for s in DRAW_STAGES)
        print(f"{label:<22} {f'{chunk}x{scn.n}':>9} {cells}")


CYCLES = {  # the benchmark's calls per cycle, by label in _mc_configs
    "mc-scenarios": ("mc-scenarios s1", "mc-scenarios s2", "mc-scenarios s3", "mc-scenarios s4",
                     "mc-scenarios s1"),
    "mc-n200": ("mc-n200 km", "mc-n200 io", "mc-n200 io"),
}


def faults(workload: str, seed: int, cycles: int) -> None:
    """Minor faults and ms per ``run_grid`` call over ``cycles`` cycles of a workload's
    calls, after one warm-up cycle; run in a fresh interpreter by ``fault_table``."""
    configs = {c[0]: c for c in _mc_configs()}
    per_kind = defaultdict(lambda: ([], []))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped standard error does not matter here
        for k in range(cycles + 1):
            for slot, label in enumerate(CYCLES[workload]):
                _, scn, pi, reps, models, family = configs[label]
                pis = [0.3, 0.5, 0.7] if label.endswith("s1") else [pi] if pi is not None else None
                s = seed if family == "poisson" else seed + 10 * k + slot  # as the benchmark seeds
                f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                run_grid(scn, list(models), pis, reps, seed=s, keep_estimates=True)
                if k:
                    per_kind[label][0].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
                    per_kind[label][1].append(time.perf_counter() - t0)
    for label, (f, t) in per_kind.items():
        print(f"{label:<22} {configs[label][3]:>5} {statistics.mean(f):8.0f} {1e3 * statistics.mean(t):8.2f}")
    total = sum(sum(f) for f, _ in per_kind.values()) / cycles
    print(f"{workload + ' cycle':<22} {'':>5} {total:8.0f} "
          f"{1e3 * sum(sum(t) for _, t in per_kind.values()) / cycles:8.2f}")


def fault_table(seed: int, cycles: int) -> None:
    print(f"\nrun_grid calls of the benchmark's cycles, each workload in a fresh interpreter:"
          f" minor faults and ms per call (mean over {cycles} cycles)")
    print(f"{'call':<22} {'reps':>5} {'faults':>8} {'ms':>8}")
    for workload in CYCLES:
        argv = [__file__, "--faults", workload, "--cycles", str(cycles), "--seed", str(seed)]
        sys.stdout.flush()
        subprocess.run([sys.executable, *argv], check=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--cycles", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--faults", choices=tuple(CYCLES), help="measure one workload's faults only")
    args = parser.parse_args(argv)
    if args.faults:
        faults(args.faults, args.seed, args.cycles)
        return 0
    stage_table(args.seed, args.repeat)
    draw_table(args.seed, args.repeat)
    fault_table(args.seed, args.cycles)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
