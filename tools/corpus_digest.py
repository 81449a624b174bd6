"""Print SHA-256 digests of a fixed corpus of Monte Carlo reports, lone fits and
exact population results.

Usage, from the repository root::

    python tools/corpus_digest.py

The corpus is a set of groups, each hashed on its own:

- ``scenarios``: ``run_grid`` on scenarios 1-4 at n = 150 and 1,000, seeds
  0 and 1, pi 0.3 and 0.5 (scenarios 1 and 2), seven specs (known-mean,
  interactions-only and fixed-coefficient specs among them);
- ``counterexamples``: both dominance counterexamples at n = 200, 400 reps;
- ``did-ldv``: ``did_vs_ldv_experiment`` at n = 300 for each configuration;
- ``gaussian-p3``: a three-covariate Gaussian sampler;
- ``all-svd``: a sampler whose covariate is in units of 10^4, so that every
  sample goes to the SVD route, at n = 2,048 and 5,000;
- ``lone-fits``: 96 fits of single draws (``fit_ols``, ``fit_weighted``,
  ``fit_poisson_glm``), with ``sandwich_vcov`` at each OLS/WLS fit's
  coefficients;
- ``hc1-fits``: the OLS and WLS fits of ``lone-fits`` again, with ``hc1``;
- ``population``: the exact calculus on 21 ``random_moment_population``
  records (p = 1..3): every named spec's ``solve_population`` coefficients,
  its ``asymptotic_variance_known_mean`` and ``asymptotic_variance_centered``,
  ``variance_gap_theorem2`` for each ordered pair of named specs where it is
  defined, and the ``table1`` and ``corollaries`` records at the record's pi
  and p; then, for three of the records written to a temporary directory, the
  exit code and stdout of ``cli.main`` for ``compare`` and ``check`` on each
  Table 1 pair (``check`` under both centerings) and for ``table1``, each in
  json and text, with the directory's name replaced by ``<dir>``;
- ``estimate-cli``: the exit code, stdout and stderr of ``cli.main``
  ``estimate`` on CSVs of single draws written to a temporary directory
  (``CSVS``): plain (scenario 1, at n = 150 and 10, and scenario 3 at n = 8)
  and weighted (scenario 4) data under five models, each as it is, with
  ``--hc1`` and with known-mean centering, and counts (scenario 2) under the
  Poisson family, and the plain data under ANHECOVA with ``--pi 0.3``, each
  in json, text and csv, with the directory's name replaced by ``<dir>``;
- ``simulate-cli``: the exit code, stdout and stderr of ``cli.main``
  ``simulate`` on scenarios 1-4 at n = 60, 8 reps, seed 3, with the default
  models and pi, and again with ``--pis 0.2:0.4:0.1 --models "1 + A,1 + A +
  X1@0.5"``, each in json, text and csv;
- ``cli-usage``: the exit code, stdout and stderr of ``cli.main`` on the paths
  argparse owns, at 80 columns: no argument, ``-h``, an unknown command and
  each command's ``-h``; missing options and values, invalid choices, bad
  numbers and ``--p 0``; abbreviations (``--mod`` for ``--model``, ambiguous
  or not), ``--opt=value``, a repeated option, ``--``, negative values
  (``--pi -0.5``) and extra arguments; and a few of these commands run to
  their report. A ``SystemExit``'s code stands for the exit code.

A group hashes every cell's report fields, ``mean_se``, failure causes and
kept estimates; every lone fit's ``ate_hat``, ``ate_se``, ``vcov`` and free
coefficients, or its error's cause and message; the population group's
numbers, records and command outputs; the messages of the
warnings raised; and the type and message of any error a run raises.
Arrays enter as their dtype, shape and bytes, scalars as their ``repr``.
One digest is printed per group, then one over all of them. Two trees that
print the same digests give the same bits for every number of the corpus.
A group's digest does not depend on the groups run before it in the process
(``tests/test_tools.py`` runs them in both orders).

Only the standard library and numpy are used; it runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linadjust import (  # noqa: E402
    NAMED_SPECS,
    EstimationError,
    GaussianArmSampler,
    KnownMean,
    asymptotic_variance_centered,
    asymptotic_variance_known_mean,
    condition_centered,
    corollaries,
    custom_scenario,
    did_vs_ldv_experiment,
    draw,
    fit_ols,
    fit_poisson_glm,
    fit_weighted,
    make_counterexample,
    named_spec,
    parse_formula,
    population_to_dict,
    random_moment_population,
    run_grid,
    sandwich_vcov,
    scenario,
    solve_population,
    table1,
    variance_gap_theorem2,
)
from linadjust.cli import main as cli_main  # noqa: E402
from linadjust.dominance import _TABLE1_ROWS  # noqa: E402
from linadjust.sim import DID_LDV_CONFIGS  # noqa: E402

IO1 = parse_formula("1 + A + A:X1", ["X1"])
SPECS = [
    named_spec("ANOVA", 1),
    named_spec("ANCOVA", 1),
    named_spec("ANHECOVA", 1),
    IO1,
    parse_formula("1 + A + X1@0.5 + A:X1@-0.25", ["X1"]),
    named_spec("ANHECOVA", 1).with_centering(KnownMean((0.3,))),
    IO1.with_centering(KnownMean((0.3,))),
]
TRIO = SPECS[:3]


def _feed(h, *values) -> None:
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
        h.update(b"\0")


def _grid(h, *args, **kwargs) -> None:
    """Hash one ``run_grid`` report, or the error it raises."""
    try:
        report = run_grid(*args, keep_estimates=True, **kwargs)
    except (EstimationError, ValueError) as exc:
        _feed(h, type(exc).__name__, str(exc))
        return
    _cells(h, report)


def _cells(h, report) -> None:
    for c in report.cells:
        _feed(h, *c.row().values(), c.mean_se, sorted(c.failures.items()), c.estimates)


def scenarios(h) -> None:
    for sid in (1, 2, 3, 4):
        for n in (150, 1000):
            for seed in (0, 1):
                _grid(h, scenario(sid, n=n), SPECS, [0.3, 0.5], 48 if n == 150 else 24, seed)


def counterexamples(h) -> None:
    for kind, pi, models in (
        ("AncovaWorse", 0.3, SPECS[:2]),
        ("InteractionsOnlyWorseCentered", 0.75, [SPECS[0], IO1, SPECS[2]]),
    ):
        scn = custom_scenario(make_counterexample(kind, pi).sampler, pi=pi, beta_ate=1.0, n=200)
        _grid(h, scn, models, None, 400, 3)


def did_ldv(h) -> None:
    for config in DID_LDV_CONFIGS:
        _cells(h, did_vs_ldv_experiment(reps=200, seed=1, n=300, config=config))


def gaussian_p3(h) -> None:
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    sampler = GaussianArmSampler(
        sigma=m @ m.T + np.eye(3), b0=0.5, b1=1.5,
        l0=rng.normal(size=3), l1=rng.normal(size=3), s0=0.7, s1=1.3,
    )
    models = [named_spec(name, 3) for name in ("ANOVA", "ANCOVA", "ANHECOVA")]
    _grid(h, custom_scenario(sampler, pi=0.4, n=250), models, [0.4, 0.6], 100, 2)


def all_svd(h) -> None:
    sampler = GaussianArmSampler(
        sigma=np.eye(1) * 1e8, b0=1.0, b1=2.0,
        l0=np.array([2e-4]), l1=np.array([5e-5]), s0=1.0, s1=1.0,
    )
    for n in (2048, 5000):
        _grid(h, custom_scenario(sampler, pi=0.5, n=n), TRIO, None, 20, 5)


def lone_fits(h, fits=((1, fit_ols), (2, fit_poisson_glm), (3, fit_ols), (4, fit_weighted))) -> None:
    for sid, fit in fits:
        for n in (8, 150):
            for seed in (0, 1):
                data = draw(scenario(sid, n=n), seed, pi=0.3).data
                for spec in SPECS[:6]:
                    try:
                        res = fit(spec, data)
                    except EstimationError as exc:
                        _feed(h, exc.cause, str(exc))
                        continue
                    _feed(h, res.ate_hat, res.ate_se, res.vcov, res.free_coefs,
                          res.converged, res.iterations)
                    if fit is not fit_poisson_glm:
                        _feed(h, sandwich_vcov(spec, data, res))


def hc1_fits(h) -> None:
    fits = ((1, fit_ols), (3, fit_ols), (4, fit_weighted))
    lone_fits(h, [(sid, partial(fit, hc1=True)) for sid, fit in fits])


def _cli(argv: list[str], tmp: str | None = None) -> tuple[int, str, str]:
    """``cli.main``'s exit code, stdout and stderr, with ``tmp`` (if given) written
    ``<dir>``; the code of a ``SystemExit`` (argparse's help and errors) is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
    if tmp is None:
        return rc, out.getvalue(), err.getvalue()
    return rc, out.getvalue().replace(tmp, "<dir>"), err.getvalue().replace(tmp, "<dir>")


def population(h) -> None:
    rng = np.random.default_rng(29)
    pops = [random_moment_population(rng, 1 + k % 3) for k in range(21)]
    for pop in pops:
        specs = [named_spec(name, pop.p) for name in NAMED_SPECS]
        for spec in specs:
            sol = solve_population(spec, pop)
            _feed(h, sol.alpha, sol.beta, sol.gamma, sol.delta, sol.beta_ate,
                  asymptotic_variance_known_mean(spec, pop),
                  asymptotic_variance_centered(spec, pop))
        for s1 in specs:
            for s2 in specs:
                if condition_centered(s1, s2):
                    _feed(h, variance_gap_theorem2(s1, s2, pop))
        _feed(h, table1(pop.p, pop.pi), corollaries(pop.pi, pop.p))
    with tempfile.TemporaryDirectory() as tmp:
        for k, pop in enumerate(pops[:3]):
            path = Path(tmp, f"population{k}.json")
            path.write_text(json.dumps(population_to_dict(pop)))
            p, pi = str(pop.p), repr(pop.pi)
            runs = [["table1", "--pi", pi, "--p", p]]
            for f1, f2 in _TABLE1_ROWS:
                runs.append(["compare", "--population", str(path), "--model", f1, "--model2", f2])
                for centering in ("known-mean", "empirical"):
                    runs.append(["check", "--model", f1, "--model2", f2, "--pi", pi, "--p", p,
                                 "--centering", centering])
            for argv in runs:
                for fmt in ("json", "text"):
                    _feed(h, *_cli([*argv, "--format", fmt], tmp)[:2])


# (file, scenario, n, seed) of the estimate-cli group's CSVs: at n = 10 one fit's standard
# error is clamped, at n = 8 the interaction models' designs are singular
CSVS = [("plain", 1, 150, 2), ("clamped", 1, 10, 2), ("singular", 3, 8, 3), ("weighted", 4, 150, 2),
        ("counts", 2, 150, 2)]


def estimate_cli(h) -> None:
    models = ["anova", "ancova", "anhecova", "1 + A + A:x1", "1 + A + x1@0.5 + A:x1@-0.25"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, sid, n, seed in CSVS:
            data = draw(scenario(sid, n=n), seed, pi=0.3).data
            cols = [data.a, data.y, data.x[:, 0]] + ([] if data.weights is None else [data.weights])
            path = str(Path(tmp, f"{name}.csv"))
            header = "a,y,x1" + ("" if data.weights is None else ",w")
            rows = (",".join(repr(float(v)) for v in row) for row in zip(*cols))
            Path(path).write_text("\n".join([header, *rows]) + "\n")
            for model in models:
                argv = ["estimate", "--data", path, "--model", model]
                if name == "counts":
                    runs.append([*argv, "--family", "poisson"])
                else:
                    runs += [argv, [*argv, "--hc1"], [*argv, "--centering", "known-mean", "--mean", "0.3"]]
        runs.append(["estimate", "--data", str(Path(tmp, "plain.csv")), "--model", "anhecova",
                     "--pi", "0.3"])
        for argv in runs:
            for fmt in ("json", "text", "csv"):
                _feed(h, *_cli([*argv, "--format", fmt], tmp))


def simulate_cli(h) -> None:
    for sid in (1, 2, 3, 4):
        argv = ["simulate", "--scenario", str(sid), "--n", "60", "--reps", "8", "--seed", "3"]
        for run in (argv, [*argv, "--pis", "0.2:0.4:0.1", "--models", "1 + A,1 + A + X1@0.5"]):
            for fmt in ("json", "text", "csv"):
                _feed(h, *_cli([*run, "--format", fmt]))


def cli_usage(h) -> None:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        data = draw(scenario(1, n=20), 4, pi=0.5).data
        path = str(Path(tmp, "plain.csv"))
        rows = (f"{a!r},{y!r},{x!r}" for a, y, x in zip(data.a, data.y, data.x[:, 0]))
        Path(path).write_text("\n".join(["a,y,X1", *rows]) + "\n")
        pair = ["--model", "anova", "--model2", "ancova"]
        check = ["check", *pair, "--pi", "0.3"]
        runs = [[], ["-h"], ["--help"], ["bogus"], ["--", "table1"], ["--format", "json"]]
        runs += [[command, "-h"] for command in ("estimate", "check", "compare", "simulate", "table1")]
        runs += [
            ["estimate", "--model", "anova"], ["check", "--model", "anova"], ["compare"],
            ["simulate"], ["table1", "--p"],  # missing options and values
            [*check, "--centering", "bogus"], ["table1", "--format", "csv"],
            ["simulate", "--scenario", "5"], ["estimate", "--data", path, "--model", "anova",
                                             "--family", "x"],  # invalid choices
            ["table1", "--pi", "abc"], ["table1", "--p", "x"], ["table1", "--p", "0"],
            ["table1", "--p", "1.5"], ["simulate", "--scenario", "1", "--reps", "-3"],
            ["estimate", "--data", path, "--mod", "anova"], [*check[:1], "--mod", "anova"],
            ["estimate", "--h"], ["table1", "--f", "json"], ["table1", "--fo=json", "--p=1"],
            ["check", "--model=anova", "--model2=1 + A + X1", "--pi=0.4", "--format=json"],
            ["table1", "--pi", "0.2", "--pi", "0.4", "--format", "json"],
            ["table1", "--"], ["table1", "--", "--pi", "0.3"], [*check, "--", "extra"],
            [*check[:5], "--pi", "-0.5"], ["table1", "--pi", "-0.5"], ["table1", "--pi", "-.5"],
            ["table1", "extra"], [*check, "extra"], ["table1", "--bogus"], ["table1", "--pi", "0.3", "-h"],
            ["estimate", "--data", path, "--model", "anova", "--pi", "0.5", "extra", "--format", "json"],
        ]
        for argv in runs:
            _feed(h, *_cli(argv, tmp))


GROUPS = {
    "scenarios": scenarios,
    "counterexamples": counterexamples,
    "did-ldv": did_ldv,
    "gaussian-p3": gaussian_p3,
    "all-svd": all_svd,
    "lone-fits": lone_fits,
    "hc1-fits": hc1_fits,
    "population": population,
    "estimate-cli": estimate_cli,
    "simulate-cli": simulate_cli,
    "cli-usage": cli_usage,
}


def digest(name: str) -> bytes:
    """The digest of group ``name``: its numbers, then the messages of the warnings it raised."""
    h = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GROUPS[name](h)
    _feed(h, *(str(w.message) for w in caught))
    return h.digest()


def main() -> int:
    overall = hashlib.sha256()
    for name in GROUPS:
        d = digest(name)
        overall.update(d)
        print(f"{name:<16}{d.hex()}")
    print(f"{'overall':<16}{overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
