"""Self-tests of the benchmark: every workload end to end at tiny size, and every check
rejecting a deliberately perturbed result.

Run from the repository root with ``python3 -m pytest bench``. The
tier-1 suite (``testpaths = ["tests"]``) does not collect this file.
"""

from __future__ import annotations

import copy
import io
import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks as ck  # noqa: E402
import speed  # noqa: E402
import workloads as wls  # noqa: E402
from checks import Spec  # noqa: E402
from linadjust import cli, estimate, population, sim  # noqa: E402
from linadjust.model import Dataset, KnownMean, named_spec, parse_formula  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# BENCHMARK.json and whole runs


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(wls.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(NAME.match(n) for n in all_names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # 4 + 22 runs per workload must fit 3420 s: each run is the run length
    # plus four worker set-ups (at most about 3.5 s, on mc-scenarios) and checks
    worst_run_s = SPEC["run_seconds"] + 4 * 3.5 + 6.0
    assert (4 + 22 * len(names)) * worst_run_s < 3420


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wls.WORKLOADS))
def test_tiny_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        shares = sum(result["metrics"][f"{m}.self_share"]["value"] for m in
                     ("sim", "model", "estimate", "population", "dominance", "cli"))
        assert 0.9 <= shares <= 1.0 + 1e-9
    record = json.loads((BENCH / "out" / f"{workload}-seed5-trace{trace}-tiny.json").read_text())
    assert all(c["ok"] for c in record["checks"])
    assert record["environment"]["numpy"] == np.__version__


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-n200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scaling_uses_the_samples_around_a_call():
    track = speed.SpeedTrack("cli")
    track.at, track.took = [0.0, 1.0, 2.0], [0.001, 0.002, 0.004]
    assert track.local(1.5) == pytest.approx(0.003)
    assert track.local(-1.0) == pytest.approx(0.001)
    assert track.local(9.0) == pytest.approx(0.004)
    # a call made while the kernel ran at twice its reference time counts half
    assert track.scale(1.5, 0.6) == pytest.approx(0.6 * track.ref_s / 0.003)
    for name in speed.KERNELS:
        assert 0.0 < speed.kernel(name) < 1.0


# ---------------------------------------------------------------------------
# Closed forms the checks use, against the program's own population calculus


def test_counterexample_variances_match_population_calculus():
    exact = wls.counterexample_variances()
    km = population.make_counterexample("AncovaWorse", wls.KM_PI)
    known = [s.with_centering(KnownMean((0.0,))) for s in (named_spec("ANOVA", 1), named_spec("ANCOVA", 1))]
    got = [population.asymptotic_variance_known_mean(s, km) for s in known]
    assert got == pytest.approx(list(exact["km"].values()), rel=1e-12)
    io_pop = population.make_counterexample("InteractionsOnlyWorseCentered", wls.IO_PI)
    specs = [named_spec("ANOVA", 1), parse_formula("1 + A + A:X1", ["X1"])]
    got = [population.asymptotic_variance_centered(s, io_pop) for s in specs]
    assert got == pytest.approx(list(exact["io"].values()), rel=1e-12)
    assert exact["km"]["1 + A"] == pytest.approx(5.762, abs=1e-3)
    assert exact["io"]["1 + A + A:X1"] == pytest.approx(8.333, abs=1e-3)


@pytest.mark.parametrize("pi", wls.MC_PIS)
def test_scenario1_variances_match_population_calculus(pi):
    mom = population.ExactMoments(
        sigma=[[1.0]], omega1=[2.5], omega0=[1.0], mu1=5.0, mu0=3.0,
        q1=25.0 + 6.25 + 1.0, q0=9.0 + 1.0 + 1.0,
    )
    pop = population.PopulationSpec(pi=pi, moments=mom)
    for label, v in ck.scenario1_variances(pi).items():
        spec = parse_formula(label, ["X1"])
        assert population.asymptotic_variance_centered(spec, pop) == pytest.approx(v, rel=1e-12)


def test_moment_closed_forms_match_population_calculus():
    rec = wls._population(np.random.default_rng(3), 3, 0.35)
    pop = population.population_from_dict(rec)
    cf = ck.moment_closed_forms(rec)
    assert population.ancova_anova_gap(pop) == pytest.approx(cf["ancova_minus_anova"], rel=1e-10)
    full = named_spec("ANHECOVA", 3)
    assert population.asymptotic_variance_known_mean(full, pop) == pytest.approx(cf["v_full_known"], rel=1e-10)
    assert population.asymptotic_variance_centered(full, pop) == pytest.approx(cf["v_full_centered"], rel=1e-10)


def test_scenario2_truth_is_the_closed_form():
    exact, se = ck.scenario2_truth()
    assert exact == pytest.approx(20.7924, abs=1e-4)
    assert 0.004 < se < 0.005


# ---------------------------------------------------------------------------
# Each check accepts the real result and rejects a perturbed one


def _data(seed=0, n=300, weighted=False, poisson=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 1.0, (n, 2))
    a = (rng.random(n) < 0.4).astype(float)
    if poisson:
        y = rng.poisson(np.exp(1.0 + 0.5 * a + 0.3 * x[:, 0])).astype(float)
    else:
        y = 1.0 + 2.0 * a + x @ [1.0, -0.5] + a * x[:, 0] * 0.7 + rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    return a, x, y, w


FORMULA = "1 + A + X1 + X2@0.5 + A:X2"
FORMULA_SPEC = Spec((None, 0.5), (0.0, None))
FULL2 = Spec((None, None), (None, None))


@pytest.mark.parametrize("weighted", [False, True])
def test_check_fit_linear(weighted):
    a, x, y, w = _data(weighted=weighted)
    spec = parse_formula(FORMULA, ["X1", "X2"])
    fit_fn = estimate.fit_weighted if weighted else estimate.fit_ols
    fit = fit_fn(spec, Dataset(a, x, y, w))
    oracle = ck.oracle_linear(FORMULA_SPEC, FULL2, a, x, y, w)
    assert ck.check_fit("f", fit, oracle).ok
    for field, factor in (("ate_se", 1 + 1e-6), ("ate_hat", 1 + 1e-6)):
        bad = copy.copy(fit)
        setattr(bad, field, getattr(fit, field) * factor)
        assert not ck.check_fit("f", bad, oracle).ok
    bad = copy.copy(fit)
    bad.vcov = fit.vcov * (1 + 1e-6)
    assert not ck.check_fit("f", bad, oracle).ok
    # the centering correction is part of the oracle: an SE without it fails
    uncorrected = ck.OracleFit(oracle.coef, oracle.vcov, oracle.ate_hat, math.sqrt(oracle.vcov[1, 1]))
    assert not ck.check_fit("f", fit, uncorrected).ok


def test_check_fit_poisson():
    a, x, y, _ = _data(poisson=True)
    spec = named_spec("ANHECOVA", 2)
    fit = estimate.fit_poisson_glm(spec, Dataset(a, x, y))
    oracle = ck.oracle_poisson(FULL2, a, x, y)
    assert ck.check_fit("p", fit, oracle).ok
    bad = copy.copy(fit)
    bad.free_coefs = fit.free_coefs + 1e-6
    assert not ck.check_fit("p", bad, oracle).ok


def test_check_estimate_json(tmp_path):
    a, x, y, w = _data(weighted=True)
    path = tmp_path / "d.csv"
    wls._write_csv(path, a, y, x, w)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["estimate", "--data", str(path), "--model", FORMULA, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    oracle = ck.oracle_linear(FORMULA_SPEC, FULL2, a, x, y, w)
    assert ck.check_estimate_json("e", payload, oracle, FORMULA_SPEC, len(y)).ok
    for key in ("ate_hat", "ate_se"):
        bad = dict(payload, **{key: payload[key] * (1 + 1e-6)})
        assert not ck.check_estimate_json("e", bad, oracle, FORMULA_SPEC, len(y)).ok
    bad = copy.deepcopy(payload)
    bad["theta_hat"]["gamma"][1] = 0.25  # the pinned value must be echoed
    assert not ck.check_estimate_json("e", bad, oracle, FORMULA_SPEC, len(y)).ok
    assert not ck.check_estimate_json("e", dict(payload, n_used=len(y) - 1), oracle,
                                      FORMULA_SPEC, len(y)).ok


def _normal(seed, sd, r, mean=1.0):
    return np.random.default_rng(seed).normal(mean, sd, r)


def test_check_pooled_variance_and_mean():
    n, v, pi, r = 200, 6.0, 0.3, 20_000
    est = _normal(1, math.sqrt(v / n), r)
    assert ck.check_pooled_variance("v", est, n, v, pi).ok
    assert not ck.check_pooled_variance("v", 1.0 + (est - 1.0) * 1.2, n, v, pi).ok
    assert not ck.check_pooled_variance("v", np.append(est, np.nan), n, v, pi).ok
    assert ck.check_pooled_mean("m", est, 1.0).ok
    assert not ck.check_pooled_mean("m", est + 10 * est.std() / math.sqrt(r), 1.0).ok


def test_check_adjusted_loses():
    n, r = 200, 40_000
    v_u, v_a = 5.762, 6.524
    unadj, adj = _normal(2, math.sqrt(v_u / n), r), _normal(3, math.sqrt(v_a / n), r)
    assert ck.check_adjusted_loses("l", adj, unadj, n, v_a, v_u).ok
    assert not ck.check_adjusted_loses("l", unadj, adj, n, v_a, v_u).ok
    small = ck.check_adjusted_loses("l", adj[:100], unadj[:100], n, v_a, v_u)
    assert small.ok and small.skipped


def test_check_se_ratio():
    assert ck.check_se_ratio("s", 0.99, 1.0, 5000).ok
    assert not ck.check_se_ratio("s", 1.2, 1.0, 5000).ok
    assert not ck.check_se_ratio("s", float("nan"), 1.0, 5000).ok


@pytest.fixture(scope="module")
def grid():
    scn = sim.scenario(1, n=200)
    models = [named_spec("ANOVA", 1), named_spec("ANCOVA", 1)]
    args = (scn, models, [0.5], 30)
    return args, sim.run_grid(*args, seed=4, keep_estimates=True)


def test_check_cell(grid):
    _, report = grid
    cell = report.cells[0]
    assert ck.check_cell("c", cell, 2.0).ok
    for field, value in (("bias", cell.bias + 1e-9), ("sd", cell.sd * (1 + 1e-9)),
                         ("mean_se", float("nan")), ("fail_rate", float("inf"))):
        assert not ck.check_cell("c", _replace(cell, field, value), 2.0).ok
    short = _replace(cell, "estimates", cell.estimates[:-1])
    assert not ck.check_cell("c", short, 2.0).ok


def _replace(obj, field, value):
    new = copy.copy(obj)
    setattr(new, field, value)
    return new


def test_check_same_report(grid):
    args, report = grid
    again = sim.run_grid(*args, seed=4, keep_estimates=True)
    assert ck.check_same_report("r", report, again).ok
    flipped = copy.deepcopy(again)
    est = flipped.cells[1].estimates
    est[7] = np.nextafter(est[7], np.inf)
    assert not ck.check_same_report("r", report, flipped).ok
    other = sim.run_grid(*args, seed=5, keep_estimates=True)
    assert not ck.check_same_report("r", report, other).ok


def test_check_truth():
    exact, se = ck.scenario2_truth()
    mean = 2.01
    assert ck.check_truth("t", mean - exact + 2 * se, mean).ok
    assert not ck.check_truth("t", mean - exact + 5 * se, mean).ok


@pytest.fixture(scope="module")
def compare_outputs(tmp_path_factory):
    rec = wls._population(np.random.default_rng(11), 2, 0.3)
    path = tmp_path_factory.mktemp("pop") / "p.json"
    path.write_text(json.dumps(rec))
    outs = {}
    for pair in ck.TABLE1_PAIRS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["compare", "--population", str(path), "--model", pair[0],
                             "--model2", pair[1], "--format", "json"]) == 0
        outs[pair] = json.loads(buf.getvalue())
    return rec, outs


def test_check_compare(compare_outputs):
    rec, outs = compare_outputs
    for pair, payload in outs.items():
        assert all(c.ok for c in ck.check_compare("c", payload, rec, pair)), pair

    def fails(pair, mutate):
        bad = copy.deepcopy(outs[pair])
        mutate(bad)
        return not all(c.ok for c in ck.check_compare("c", bad, rec, pair))

    assert fails((ck.ANCOVA, ck.ANOVA), lambda p: p["v_known_mean"].update(gap=p["v_known_mean"]["gap"] + 1e-6))
    assert fails((ck.FULL, ck.ANOVA), lambda p: p.update(theorem2_gap=p["theorem2_gap"] * (1 + 1e-6)))
    assert fails((ck.FULL, ck.ANOVA), lambda p: p["v_known_mean"].update(model2=p["v_known_mean"]["model2"] + 1e-6))
    assert fails((ck.FULL, ck.ANCOVA), lambda p: p["v_centered"].update(model1=p["v_centered"]["model1"] * 1.001))
    assert fails((ck.ANCOVA, ck.ANOVA), lambda p: p.update(theorem2_gap=0.0))
    assert fails((ck.FULL, ck.ANOVA), lambda p: p.update(beta_ate=p["beta_ate"] + 1e-6))
    # a Dominates verdict over a negative exact gap is rejected
    assert fails((ck.FULL, ck.ANOVA), lambda p: p["v_known_mean"].update(gap=-1.0))
    assert fails((ck.FULL, ck.ANOVA), lambda p: p.update(verdict_centered={"verdict": "Maybe"}))


def test_check_verdict_matches():
    assert ck.check_verdict_matches("v", "Dominates", "Dominates").ok
    assert not ck.check_verdict_matches("v", "Dominates", "NotGuaranteed").ok


def test_analysis_cli_flags_changed_output_and_exit_codes():
    wl = wls.AnalysisCli(1, True)
    wl.commands = [wls._Command("table1", ["table1"])]
    call = wls.Call("table1", 1, lambda: None)
    assert wl.record(call, 0, 0, (0, "a"), None) == 0
    assert wl.record(call, 1, 0, (0, "a"), None) == 0
    assert wl.record(call, 2, 0, (0, "b"), None) == 1
    assert wl.record(call, 3, 0, (2, "error: bad"), None) == 1
    assert wl.mismatches and wl.errors


def test_mc_cycle_for_power():
    wl = wls.McN200(1, False)
    per_cycle = {"km": wl.r_km, "io": 2 * wl.r_io}
    for kind, (v_u, v_a) in ((k, tuple(v.values())) for k, v in wls.counterexample_variances().items()):
        r = wl.min_cycles * per_cycle[kind]
        se_gap = math.sqrt(2.0 / (r - 1)) * math.hypot(v_a, v_u)
        assert v_a - v_u >= ck.K_SE * se_gap
