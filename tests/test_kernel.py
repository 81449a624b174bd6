"""The stacked fitting kernel against fits of each sample alone.

``run_grid`` fits a whole chunk of replications in one stacked call;
the public ``fit_*`` functions fit a stack of one. Every sample of a
mixed stack must get the estimate, standard error, clamp flag and
error that the public function gives it alone.
"""

import warnings

import numpy as np
import pytest

from linadjust import (
    Dataset,
    EstimationError,
    KnownMean,
    SingularDesignError,
    custom_scenario,
    draw,
    fit_ols,
    fit_poisson_glm,
    fit_weighted,
    named_spec,
    parse_formula,
    rep_seed,
    run_grid,
    scenario,
)
from linadjust.estimate import GRAM_RTOL, _fit, _solve, _Stack, _svd_solve
from linadjust.model import build_design
from linadjust.sim import _did_ldv_sampler, _digest, _draw_stack, _rep_states

IO1 = parse_formula("1 + A + A:X1", ["X1"])
SPECS1 = [
    named_spec("ANOVA", 1),
    named_spec("ANCOVA", 1),
    named_spec("ANHECOVA", 1),
    IO1,
    parse_formula("1 + A + X1@0.5 + A:X1@-0.25", ["X1"]),
    named_spec("ANHECOVA", 1).with_centering(KnownMean((0.3,))),
    IO1.with_centering(KnownMean((0.3,))),
]
SPECS2 = [
    named_spec("DiD", 2),
    named_spec("LDV", 2),
    named_spec("ANHECOVA", 2),
    parse_formula("1 + A + X1@0.6 + X2 + A:X2", ["X1", "X2"]),
    named_spec("DiD", 2).with_centering(KnownMean((0.0, 0.0))),
]
CLAMP_A = [1, 1, 1, 1, 0, 0, 0, 0]
CLAMP_X = [-0.626, 1.107, 0.539, 0.829, -0.602, -0.557, -0.822, -0.541]
CLAMP_Y = [-1.943, 0.429, -1.5, 0.079, -1.298, 0.117, -1.192, -0.02]


def _alone(fit_fn, spec, data):
    """(ate_hat, ate_se, se_clamped, error) of the public fit of one sample."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            fit = fit_fn(spec, data)
        except EstimationError as exc:
            return np.nan, np.nan, False, exc
    assert len(rec) == fit.se_clamped
    return fit.ate_hat, fit.ate_se, fit.se_clamped, None


def _gaussian(rng, n, p, weighted=False):
    a = np.array([1.0, 0.0] * (n // 2))
    x = rng.normal(1.0, 1.0, (n, p))
    y = 1.0 + a + x @ np.linspace(0.5, -0.5, p) + a * x[:, 0] + rng.normal(size=n)
    return Dataset(a, x, y, rng.uniform(0.2, 3.0, n) if weighted else None)


def _stack_p1(rng):
    ds = [_gaussian(rng, 8, 1) for _ in range(3)]
    ds.append(Dataset(CLAMP_A, CLAMP_X, CLAMP_Y))  # interactions-only SE clamps
    ds.append(Dataset(np.ones(8), rng.normal(size=8), rng.normal(size=8)))  # empty arm
    ds.append(Dataset(CLAMP_A, np.full(8, 0.5), rng.normal(size=8)))  # constant covariate
    # constant control-arm covariate: the empirical full-model refit is singular
    ds.append(Dataset(CLAMP_A, [0.1, 0.9, -1.2, 0.4, 2.0, 2.0, 2.0, 2.0], rng.normal(size=8)))
    return ds, SPECS1, fit_ols, "gaussian"


def _stack_weighted(rng):
    ds = [_gaussian(rng, 8, 1, weighted=True) for _ in range(3)]
    big = ds[0]
    ds.append(Dataset(big.a, big.x, big.y, 1e24 * big.weights))
    ds.append(Dataset(CLAMP_A, np.full(8, -1.0), rng.normal(size=8), np.ones(8)))
    ds.append(Dataset(np.zeros(8), rng.normal(size=8), rng.normal(size=8), np.ones(8)))
    return ds, SPECS1, fit_weighted, "gaussian"


def _stack_p2(rng):
    ds = [_gaussian(rng, 10, 2) for _ in range(4)]
    x = rng.normal(size=(10, 2))
    x[:, 1] = 2.0 * x[:, 0]
    ds.append(Dataset(ds[0].a, x, rng.normal(size=10)))  # collinear covariates
    return ds, SPECS2, fit_ols, "gaussian"


def _stack_poisson(rng):
    a = np.array([1.0] * 5 + [0.0] * 5)
    ds = []
    for _ in range(3):
        x = rng.normal(size=10)
        ds.append(Dataset(a, x, rng.poisson(np.exp(1.0 + 0.5 * a + 0.3 * x)).astype(float)))
    # separation: every treated count is 0
    ds.append(Dataset(a, np.arange(10.0), np.r_[np.zeros(5), np.full(5, 9.0)]))
    # controls at x = -1, -2 with y = 0, 1: the IRLS weights collapse
    a2 = np.array([1.0] * 8 + [0.0] * 2)
    x2 = np.r_[np.linspace(-1.0, 2.0, 8), -1.0, -2.0]
    ds.append(Dataset(a2, x2, np.array([2, 3, 1, 4, 5, 3, 6, 4, 0, 1], dtype=float)))
    ds.append(Dataset(np.zeros(10), rng.normal(size=10), np.arange(10.0)))  # empty arm
    return ds, SPECS1[:3] + SPECS1[5:6], fit_poisson_glm, "poisson"


def test_mixed_stacks_match_fits_alone():
    rng = np.random.default_rng(2024)
    seen = set()
    for make in (_stack_p1, _stack_weighted, _stack_p2, _stack_poisson):
        datasets, specs, fit_fn, family = make(rng)
        stack = _Stack(datasets)
        for spec in specs:
            fits = _fit(spec, stack, family)
            for r, data in enumerate(datasets):
                ate_hat, ate_se, clamped, error = _alone(fit_fn, spec, data)
                assert np.isnan(fits.ate_hat[r]) == (error is not None)
                assert np.isnan(fits.ate_se[r]) == (error is not None)
                if error is not None:
                    got = fits.errors[r]
                    assert (type(got), str(got)) == (type(error), str(error))
                    assert getattr(got, "columns", None) == getattr(error, "columns", None)
                    seen.add(str(error).split(";")[0].split(" (")[0])
                    continue
                assert r not in fits.errors
                assert fits.ate_hat[r] == pytest.approx(ate_hat, rel=1e-12, abs=1e-12)
                assert fits.ate_se[r] == pytest.approx(ate_se, rel=1e-12, abs=1e-12)
                assert fits.clamped[r] == clamped
                seen.add("clamped" if clamped else "fitted")
                one = fits.result(r, data.n)
                assert one.iterations >= 1 and np.isfinite(one.condition_number)
    assert seen == {
        "fitted",
        "clamped",
        "singular design",
        "both treatment arms must be nonempty",
        "Poisson fit diverged",
    }


def test_full_model_refit_failure_drops_only_penalized_specs():
    data = _stack_p1(np.random.default_rng(7))[0][-1]
    with pytest.raises(SingularDesignError):
        fit_ols(named_spec("ANHECOVA", 1), data)
    with pytest.raises(SingularDesignError):
        fit_ols(IO1, data)
    assert np.isfinite(fit_ols(IO1.with_centering(KnownMean((0.0,))), data).ate_se)
    assert np.isfinite(fit_ols(named_spec("ANCOVA", 1), data).ate_se)


class _SometimesConstant:
    """n-row draws whose covariate is constant in about 1 draw of 200."""

    p = 1

    def potential(self, n, rng):
        x = rng.standard_normal((n, 1))
        if rng.random() < 0.005:
            x[:] = 0.5
        y1 = 1.0 + 1.5 * x[:, 0] + rng.standard_normal(n)
        y0 = -0.5 * x[:, 0] + rng.standard_normal(n)
        return x, y1, y0


def test_run_grid_matches_a_scalar_reference_loop():
    scn = custom_scenario(_SometimesConstant(), pi=0.5, beta_ate=1.0, n=14)
    models = [
        named_spec("ANOVA", 1),
        named_spec("ANCOVA", 1),
        IO1,
        named_spec("ANHECOVA", 1).with_centering(KnownMean((0.0,))),
    ]
    reps, seed = 1500, 3
    key = f"scenario={scn.id}|pi=0.5|n=14"
    ref = [[] for _ in models]
    failed = [0] * len(models)
    clamps = 0
    for rep in range(reps):
        data = draw(scn, rep_seed(seed, key, rep), pi=0.5).data
        for m, spec in enumerate(models):
            ate_hat, ate_se, clamped, error = _alone(fit_ols, spec, data)
            failed[m] += error is not None
            clamps += clamped
            if error is None:
                ref[m].append((ate_hat, ate_se))
    assert 0 < max(failed) <= 0.01 * reps
    assert clamps > 0

    with pytest.warns(RuntimeWarning, match="clamped at zero"):
        report = run_grid(scn, models, None, reps, seed=seed, keep_estimates=True)
    for cell, want, f in zip(report.cells, ref, failed):
        assert cell.fail_rate == f / reps
        ests, ses = np.array(want).T
        np.testing.assert_allclose(cell.estimates, ests, rtol=1e-12, atol=1e-12)
        assert cell.mean_se == pytest.approx(ses.mean(), rel=1e-12)


@pytest.mark.parametrize("sid", [1, 2, 4])
def test_chunk_size_does_not_change_a_grid(sid, monkeypatch):
    """A replication's numbers do not depend on which chunk it is stacked in."""
    scn = scenario(sid, n=100)
    models = SPECS1[:3] + SPECS1[5:6]
    pis = [0.4] if sid in (1, 2) else None
    reports = []
    for rows in (100, 300, 8192):
        monkeypatch.setattr("linadjust.sim.CHUNK_ROWS", rows)
        reports.append(run_grid(scn, models, pis, 25, seed=1, keep_estimates=True))
    for other in reports[1:]:
        assert other.to_csv() == reports[0].to_csv()
        for c0, c1 in zip(reports[0].cells, other.cells):
            assert np.array_equal(c0.estimates, c1.estimates)
            assert c0.mean_se == c1.mean_se


GRID_CASES = {
    "s1": (scenario(1, n=150), 0.4, fit_ols),
    "s2": (scenario(2, n=150), 0.4, fit_poisson_glm),
    "s3": (scenario(3, n=150), None, fit_ols),
    "s4": (scenario(4, n=150), None, fit_weighted),
    "did-ldv": (custom_scenario(_did_ldv_sampler("default"), pi=0.5, n=150, id="did-ldv"), 0.5, fit_ols),
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_chunk_draw_and_grid_match_draw_and_fits_alone(case, monkeypatch):
    """Each chunk holds exactly the data of draw(scn, rep_seed(...), pi), and
    run_grid's numbers are those of the public fits of each replication alone."""
    scn, pi, fit_fn = GRID_CASES[case]
    models = [named_spec(m, 2) for m in ("DiD", "LDV", "ANHECOVA")] if case == "did-ldv" else SPECS1
    reps, seed = 40, 8
    key = f"scenario={scn.id}|pi={pi}|n={scn.n}"
    data = [draw(scn, rep_seed(seed, key, r), pi=pi).data for r in range(reps)]
    stack = _draw_stack(scn, pi, _rep_states(seed, _digest(key), 0, reps))
    assert np.array_equal(stack.a, np.stack([d.a for d in data]))
    assert np.array_equal(stack.x, np.stack([d.x for d in data]))
    assert np.array_equal(stack.y, np.stack([d.y for d in data]))
    if scn.weighted:
        assert np.array_equal(stack.w, np.stack([d.weights for d in data]))
    else:
        assert stack.w is None

    monkeypatch.setattr("linadjust.sim.CHUNK_ROWS", 7 * scn.n)  # several chunks, the last short
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_grid(scn, models, [pi] if pi else None, reps, seed=seed, keep_estimates=True)
    for spec, cell in zip(models, report.cells):
        ref = [_alone(fit_fn, spec, d) for d in data]
        ok = [r for r in ref if r[3] is None]
        assert cell.fail_rate == (reps - len(ok)) / reps
        ests, ses = np.array([r[:2] for r in ok]).T
        np.testing.assert_allclose(cell.estimates, ests, rtol=1e-12, atol=1e-12)
        assert cell.mean_se == pytest.approx(ses.mean(), rel=1e-12)


class _Faulty:
    """Draws that go wrong in about one replication in ten."""

    p = 1

    def __init__(self, fault):
        self.fault = fault

    def potential(self, n, rng):
        x = rng.standard_normal((n, 1))
        y1, y0 = x[:, 0] + rng.standard_normal(n), rng.standard_normal(n)
        if rng.random() < 0.1:
            if self.fault == "nan-outcome":
                y1[n // 2] = np.nan
            elif self.fault == "3-d-x":
                x = x[None]
            else:
                x = x[1:]
        return x, y1, y0


@pytest.mark.parametrize("fault", ["nan-outcome", "3-d-x", "short-x"])
def test_run_grid_raises_what_draw_raises(fault):
    scn = custom_scenario(_Faulty(fault), pi=0.5, beta_ate=0.0, n=20)
    key = "scenario=custom|pi=0.5|n=20"
    for k in range(100):
        try:
            draw(scn, rep_seed(4, key, k), pi=0.5)
        except ValueError as exc:
            msg = str(exc)
            break
    assert k > 0
    with pytest.raises(ValueError) as got:
        run_grid(scn, [named_spec("ANCOVA", 1)], None, 100, seed=4)
    assert str(got.value) == msg


def test_errors_name_their_cause():
    ds, specs, _, family = _stack_poisson(np.random.default_rng(5))
    causes = {r: e.cause for r, e in _fit(specs[2], _Stack(ds), family).errors.items()}
    assert causes == {3: "Poisson divergence", 4: "Poisson divergence", 5: "empty arm"}
    ds, specs, _, family = _stack_p1(np.random.default_rng(5))
    causes = {r: e.cause for r, e in _fit(named_spec("ANCOVA", 1), _Stack(ds), family).errors.items()}
    assert causes == {4: "empty arm", 5: "singular design"}


def _random_stack(rng, weighted):
    """Eight samples whose designs have condition numbers 1 to 1e8, about one in
    seven singular, each scaled by 10^-150 to 10^150, with positive weights
    over four decades when ``weighted``."""
    r, q = 8, int(rng.integers(1, 6))
    n = int(rng.integers(q + 2, 40))
    z = np.empty((r, n, q))
    for k in range(r):
        u = np.linalg.qr(rng.normal(size=(n, q)))[0]
        v = np.linalg.qr(rng.normal(size=(q, q)))[0]
        s = np.logspace(0.0, -rng.uniform(0.0, 8.0), q)
        if rng.random() < 0.15:
            s[-1] = 0.0
        z[k] = (u * s) @ v.T
    scale = 10.0 ** rng.uniform(-150.0, 150.0, (r, 1))
    z *= scale[..., None]
    y = (z @ rng.normal(size=(r, q, 1)))[..., 0] + 0.1 * scale * rng.normal(size=(r, n))
    w = 10.0 ** rng.uniform(-2.0, 2.0, (r, n)) if weighted else None
    return z, y, w, tuple(f"c{j}" for j in range(q))


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# a bread past 1e308 (s_min near 1e-158) overflows in the SVD route, as it always has
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_gram_route_matches_the_svd_reference(weighted):
    """_solve equals its SVD reference within 1e-12 relative on well-conditioned
    samples, bit for bit on every other one, fails exactly where it fails, and
    gives each sample what it gives that sample alone."""
    rng = np.random.default_rng(17 + weighted)
    routes = set()
    for _ in range(150):
        z, y, w, labels = _random_stack(rng, weighted)
        got = _solve(z, y, labels, w)
        zw, yw = (z, y) if w is None else (z * np.sqrt(w)[..., None], y * np.sqrt(w))
        want = _svd_solve(zw, yw, labels)
        assert got[3].keys() == want[3].keys()
        for r, e in want[3].items():
            assert (type(got[3][r]), str(got[3][r])) == (type(e), str(e))
            assert got[3][r].columns == e.columns
        for k in range(len(z)):
            alone = _solve(z[k : k + 1], y[k : k + 1], labels, None if w is None else w[k : k + 1])
            for a, b in zip(alone[:3], got[:3]):
                assert np.array_equal(a[0], b[k], equal_nan=True)
            lam = np.linalg.eigvalsh(zw[k].T @ zw[k])
            coef, bread, s = (v[k] for v in got[:3])
            ref_coef, ref_bread, ref_s = (v[k] for v in want[:3])
            if lam[0] > 1.01 * GRAM_RTOL * lam[-1]:
                routes.add("gram")
                assert _rel(coef, ref_coef) < 1e-12
                assert _rel(bread, ref_bread) < 1e-12
                assert s[0] / s[-1] == pytest.approx(ref_s[0] / ref_s[-1], rel=1e-12)
            elif lam[0] < 0.99 * GRAM_RTOL * lam[-1]:
                routes.add("failed" if k in want[3] else "svd")
                for a, b in ((coef, ref_coef), (bread, ref_bread), (s, ref_s)):
                    assert np.array_equal(a, b, equal_nan=True)
    assert routes == {"gram", "svd", "failed"}


# the covariance for the centering penalty overflows too, before the fit is dropped
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_overflowing_gram_takes_the_svd_route():
    """With covariates near 1e160 ZᵀZ overflows (and eigh would not converge on
    it); that sample is solved by the SVD bit for bit and fails as its rank
    rule says, while its neighbour in the stack keeps the Gram route."""
    rng = np.random.default_rng(37)
    a = (rng.random(50) < 0.5).astype(float)
    x = rng.normal(size=(50, 2))
    y = a + x @ [1.0, -0.5] + a * x[:, 0] + rng.normal(size=50)
    spec = parse_formula("1 + A + X1 + A:X1", ["X1", "X2"])
    big = Dataset(a, 1e160 * x, y)
    with pytest.raises(SingularDesignError) as got:
        fit_ols(spec, big)
    assert got.value.columns == ("A", "1")
    designs = [build_design(spec, d) for d in (Dataset(a, x, y), big)]
    z = np.stack([d[0] for d in designs])
    yadj = np.stack([y - d[1] for d in designs])
    labels = designs[0][2].labels
    with np.errstate(over="ignore"):
        assert not np.isfinite(z[1].T @ z[1]).all()
    stacked = _solve(z, yadj, labels)
    want = _svd_solve(z[1:], yadj[1:], labels)
    for got_v, want_v in zip(stacked[:3], want[:3]):
        assert np.array_equal(got_v[1], want_v[0], equal_nan=True)
    assert list(stacked[3]) == [1] and str(stacked[3][1]) == str(want[3][0])
    alone = _solve(z[:1], yadj[:1], labels)
    for got_v, alone_v in zip(stacked[:3], alone[:3]):
        assert np.array_equal(got_v[0], alone_v[0])
