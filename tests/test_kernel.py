"""The stacked fitting kernel against fits of each sample alone.

``run_grid`` fits a whole chunk of replications in one stacked call;
the public ``fit_*`` functions fit a stack of one. Every sample of a
mixed stack must get the estimate, standard error, clamp flag and
error that the public function gives it alone.
"""

import tracemalloc
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
from linadjust.estimate import GRAM_RTOL, _ate_var, _fit, _influence, _solve, _Stack, _svd_solve, _vcov
from linadjust.model import _design, build_design
from linadjust.sim import _chunk_reps, _chunk_states, _did_ldv_sampler, _digest, _draw_stack
from linadjust.sim import _rep_states
from oracle import HAS_LONG_DOUBLE, gauss_jordan_inverse, influence, largest, oracle, rel

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


def _stack_of(datasets):
    """The kernel's stack of the datasets' arrays, one sample per dataset."""
    weights = [d.weights for d in datasets]
    w = None if weights[0] is None else np.stack(weights)
    return _Stack(*(np.stack([getattr(d, f) for d in datasets]) for f in "axy"), w)


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
        stack = _stack_of(datasets)
        for spec in specs:
            fits = _fit(spec, stack, family, vcov=True)  # result() reports the covariance
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
        "singular design in the full model refitted for the centering correction",
        "both treatment arms must be nonempty",
        "Poisson fit diverged",
    }


def test_a_failed_batched_newton_solve_is_solved_per_sample(monkeypatch):
    """When the batched solve of the cheap Newton steps raises, each sample's
    step is solved alone: the fits are those of the batched solve, bit for
    bit, and a sample whose Gram is singular takes the routed step (the
    collapsed weights of _stack_poisson's fifth sample reach that path by
    themselves)."""
    ds, _, _, family = _stack_poisson(np.random.default_rng(5))
    spec = named_spec("ANHECOVA", 1)
    want = _fit(spec, _stack_of(ds), family)
    solve = np.linalg.solve

    def batched_raises(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", batched_raises)
    got = _fit(spec, _stack_of(ds), family)
    for name in ("coef", "ate_se", "converged", "iterations"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    causes = [{r: e.cause for r, e in fits.errors.items()} for fits in (got, want)]
    assert causes[0] == causes[1]
    assert np.isfinite(got.coef[:3]).all()


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


@pytest.mark.parametrize("sid", [1, 2, 3, 4])
def test_chunk_size_does_not_change_a_grid(sid, monkeypatch):
    """A replication's numbers do not depend on which chunk it is stacked in:
    chunks of one replication, of 4 and 12 (where the floor on replications,
    not the row budget of 1 and 3, sets the size) and one chunk of all 25."""
    scn = scenario(sid, n=100)
    models = SPECS1[:3] + SPECS1[5:6]
    pis = [0.4] if sid in (1, 2) else None
    reports = []
    for rows, chunk in ((20, 1), (100, 4), (300, 12), (8192, 81)):
        monkeypatch.setattr("linadjust.sim.CHUNK_ROWS", rows)
        assert _chunk_reps(scn.n) == chunk
        reports.append(run_grid(scn, models, pis, 25, seed=1, keep_estimates=True))
    for other in reports[1:]:
        assert other.to_csv() == reports[0].to_csv()
        for c0, c1 in zip(reports[0].cells, other.cells):
            assert np.array_equal(c0.estimates, c1.estimates)
            assert c0.mean_se == c1.mean_se


@pytest.mark.parametrize(
    ("n", "chunk"), [(200, 40), (1000, 16), (5000, 6), (16384, 2), (32769, 1)]
)
def test_chunk_floor(n, chunk):
    """A chunk holds CHUNK_ROWS rows at small n, but at least 16 replications
    while they fit in four times that, and never fewer than one."""
    assert _chunk_reps(n) == chunk


class _OneHuge:
    """Chunks whose second replication has covariates near 1e160."""

    p = 1

    def potentials(self, n, rngs):
        x = np.stack([rng.standard_normal((n, 1)) for rng in rngs])
        x[1] *= 1e160
        noise = np.stack([rng.standard_normal((2, n)) for rng in rngs])
        return x, 1.0 + noise[:, 0], noise[:, 1]


@pytest.mark.parametrize("sid", [1, 2, 4])
def test_run_grid_forms_only_the_ate_influence_row(sid, monkeypatch):
    """A grid's fits take ate_se from the ATE influence row alone: no other
    row of U = B·Z·wε̂ and no U·Uᵀ is ever formed, in the plain, the Poisson
    and the weighted fit, with or without the centering penalty."""
    calls = []

    def ate_row_only(z, resid, bread, w=None, rows=slice(None)):
        u = _influence(z, resid, bread, w, rows)
        if u.shape[1] != 1:
            raise AssertionError("run_grid formed the full influence block")
        calls.append(u.shape)
        return u

    monkeypatch.setattr("linadjust.estimate._influence", ate_row_only)
    report = run_grid(scenario(sid, n=100), SPECS1[:3] + [IO1], [0.4], 20, seed=2)
    assert all(c.fail_rate == 0.0 and np.isfinite(c.mean_se) for c in report.cells)
    assert calls


def test_an_overflowing_sample_leaves_its_neighbours_without_a_warning():
    """A sample whose covariates near 1e160 fail the rank rule is kept out of
    the covariance that the other samples' centering penalty needs, so its
    neighbours get the bits of their fits alone and nothing overflows."""
    rng = np.random.default_rng(37)
    a = (rng.random(50) < 0.5).astype(float)
    x = rng.normal(size=(50, 1))
    plain = Dataset(a, x, a + x[:, 0] + a * x[:, 0] + rng.normal(size=50))
    spec = parse_formula("1 + A + X1 + A:X1", ["X1"])
    scn = custom_scenario(_OneHuge(), pi=0.5, beta_ate=1.0, n=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = _fit(spec, _stack_of([plain, Dataset(a, 1e160 * x, plain.y)]))
        alone = fit_ols(spec, plain)
        report = run_grid(scn, [spec], None, 100, seed=1)
    assert list(fits.errors) == [1] and isinstance(fits.errors[1], SingularDesignError)
    assert (fits.ate_hat[0], fits.ate_se[0]) == (alone.ate_hat, alone.ate_se)
    assert report.cells[0].failures == {"singular design": 1}


# one run_grid chunk (16 replications of n = 1000) peaked at 138 B per row in
# scenario 2 and 145 B in scenario 4 under tracemalloc, and at 81.2 B in
# scenario 1 since its fits form no (R, q, n) score (108.8 B with it); the
# bounds add about 9%
@pytest.mark.parametrize(("sid", "bound"), [(1, 89), (2, 150), (4, 158)])
def test_a_chunk_stays_within_its_memory(sid, bound):
    scn = scenario(sid, n=1000)
    models = [named_spec(m, 1) for m in ("ANOVA", "ANCOVA", "ANHECOVA")]
    pis = [0.3] if sid in (1, 2) else None
    reps = _chunk_reps(scn.n)
    run_grid(scn, models, pis, reps, seed=0)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        run_grid(scn, models, pis, reps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (reps * scn.n) < bound


def test_seed_derivation_of_a_long_cell_stays_within_its_memory():
    """A cell's seeds are derived SEED_BLOCK replications at a time, so those of
    100,000 replications, 3.2 MB of state words and about 12.8 MB of
    derivation at once, peak under 1 MB (a block peaked at 0.53 MB)."""
    tracemalloc.start()
    try:
        chunks = sum(1 for _ in _chunk_states(11, _digest("long"), 100_000, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == 2500
    assert peak < 1_000_000


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
    causes = {r: e.cause for r, e in _fit(specs[2], _stack_of(ds), family).errors.items()}
    assert causes == {3: "Poisson divergence", 4: "Poisson divergence", 5: "empty arm"}
    ds, specs, _, family = _stack_p1(np.random.default_rng(5))
    fits = _fit(named_spec("ANCOVA", 1), _stack_of(ds), family)
    causes = {r: e.cause for r, e in fits.errors.items()}
    assert causes == {4: "empty arm", 5: "singular design"}


def _random_stack(rng, weighted):
    """Eight samples whose designs have condition numbers 1 to 1e8, about one in
    seven singular, each scaled by 10^-150 to 10^150, with positive weights
    over four decades when ``weighted``; the designs are column-major, (8, q, n)."""
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
    return np.ascontiguousarray(z.swapaxes(1, 2)), y, w, tuple(f"c{j}" for j in range(q))


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _in_budget(z, y, w, solved):
    """Per quantity, each sample's distance from the long-double oracle in units
    of its GRAM_BUDGET, for the coefficients and bread a solve gave and the
    residuals, HC0 covariance U·Uᵀ and ATE variance (at q >= 2) formed from
    them as the fit forms them, and the oracle. The variances' entries are
    NaN where the oracle's covariance or bread is out of double's range (the
    random stacks scale designs by up to 10^±150)."""
    coef, bread = solved[:2]
    resid = y - (coef[:, None, :] @ z)[:, 0]
    o = oracle(z, y, w)
    with np.errstate(all="ignore"):
        got = {"coef": coef, "bread": bread, "resid": resid, "vcov": _vcov(z, resid, bread, w)}
        if z.shape[1] > 1:
            got["ate_var"] = _ate_var(z, resid, bread, w)
        err = {q: rel(got[q], getattr(o, q)) / o.budget(q) for q in got}
        sizes = np.stack([largest(o.vcov), largest(o.bread)])
    in_range = ((sizes > 1e-250) & (sizes < 1e250)).all(axis=0)
    for q in err.keys() & {"vcov", "ate_var"}:
        err[q][~in_range] = np.nan
    return err, o


# a bread past 1e308 (s_min near 1e-158) overflows in the SVD route, as it always has
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_gram_route_matches_the_svd_reference(weighted):
    """_solve equals its SVD reference within 1e-12 relative at κ < 10, bit for
    bit where it takes the SVD route, fails exactly where it fails, and gives
    each sample what it gives that sample alone. Against the long-double
    oracle, every Gram-routed sample is within GRAM_BUDGET, and at
    10 <= κ < 10³ its coefficients and residuals are, in units of their
    budgets, at worst 4 times as far from the oracle as the SVD's."""
    rng = np.random.default_rng(17 + weighted)
    routes = set()
    worst = {"gram": {}, "svd": {}}
    for _ in range(150):
        z, y, w, labels = _random_stack(rng, weighted)
        got = _solve(z, y, labels, w)
        zw, yw = (z, y) if w is None else (z * np.sqrt(w)[:, None, :], y * np.sqrt(w))
        want = _svd_solve(zw, yw, labels)
        assert got[3].keys() == want[3].keys()
        for r, e in want[3].items():
            assert (type(got[3][r]), str(got[3][r])) == (type(e), str(e))
            assert got[3][r].columns == e.columns
        gram = []
        for k in range(len(z)):
            alone = _solve(z[k : k + 1], y[k : k + 1], labels, None if w is None else w[k : k + 1])
            for a, b in zip(alone[:3], got[:3]):
                assert np.array_equal(a[0], b[k], equal_nan=True)
            lam = np.linalg.eigvalsh(zw[k] @ zw[k].T)
            coef, bread, s = (v[k] for v in got[:3])
            ref_coef, ref_bread, ref_s = (v[k] for v in want[:3])
            if lam[0] > 1.01 * GRAM_RTOL * lam[-1]:
                routes.add("gram")
                gram.append(k)
            if lam[0] > 1.01e-2 * lam[-1]:  # κ < 10
                assert _rel(coef, ref_coef) < 1e-12
                assert _rel(bread, ref_bread) < 1e-12
                assert s[0] / s[-1] == pytest.approx(ref_s[0] / ref_s[-1], rel=1e-12)
            elif lam[0] < 0.99 * GRAM_RTOL * lam[-1]:
                routes.add("failed" if k in want[3] else "svd")
                for a, b in ((coef, ref_coef), (bread, ref_bread), (s, ref_s)):
                    assert np.array_equal(a, b, equal_nan=True)
        if not HAS_LONG_DOUBLE or not gram:
            continue
        sub = (z[gram], y[gram], None if w is None else w[gram])
        for route, solved in (("gram", got), ("svd", want)):
            err, o = _in_budget(*sub, [v[gram] for v in solved[:2]])
            if route == "gram":
                for q, e in err.items():
                    assert np.nanmax(e, initial=0.0) <= 1.0, q
            for q, e in err.items():
                e = e[o.kappa >= 10.0]
                worst[route][q] = np.nanmax(e, initial=worst[route].get(q, 0.0))
    assert routes == {"gram", "svd", "failed"}
    # the bread, and the covariance where the bread dominates it, hold to their
    # budgets only: the normal equations square κ where the SVD does not
    for q in ("coef", "resid"):
        assert worst["gram"][q] <= 4.0 * worst["svd"][q], q


def test_overflowing_gram_takes_the_svd_route():
    """With covariates near 1e160 ZᵀZ overflows (and eigh would not converge on
    it); that sample is solved by the SVD bit for bit and fails as its rank
    rule says, while its neighbour in the stack keeps the Gram route, within
    GRAM_BUDGET of the long-double oracle."""
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
    z = np.stack([d[0].T for d in designs])
    yadj = np.stack([y - d[1] for d in designs])
    labels = designs[0][2].labels
    with np.errstate(over="ignore"):
        assert not np.isfinite(z[1] @ z[1].T).all()
    stacked = _solve(z, yadj, labels)
    want = _svd_solve(z[1:], yadj[1:], labels)
    for got_v, want_v in zip(stacked[:3], want[:3]):
        assert np.array_equal(got_v[1], want_v[0], equal_nan=True)
    assert list(stacked[3]) == [1] and str(stacked[3][1]) == str(want[3][0])
    alone = _solve(z[:1], yadj[:1], labels)
    for got_v, alone_v in zip(stacked[:3], alone[:3]):
        assert np.array_equal(got_v[0], alone_v[0])
    if HAS_LONG_DOUBLE:
        err, _ = _in_budget(z[:1], yadj[:1], None, [v[:1] for v in stacked[:2]])
        assert max(e.max() for e in err.values()) <= 1.0


@pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("model", ["ANOVA", "ANCOVA", "ANHECOVA"])
def test_weighted_sandwich_against_long_double(model):
    """The weighted sandwich of a scenario 4 chunk (16 replications, n = 1000)
    agrees with the bread, residual and influence rows recomputed in long
    double at the fit's own coefficients and weights. A wrong axis in the
    weighting or the influence rows moves vcov[:, 1, 1] by O(1); over seeds 0
    to 11 (576 fits) its rounding error reached 2.0e-11 (5.5e-10 by B·M·B)."""
    scn = scenario(4, n=1000)
    key = f"scenario=4|pi=None|n={scn.n}"
    st = _draw_stack(scn, None, _rep_states(5, _digest(key), 0, 16))
    spec = named_spec(model, 1)
    fits = _fit(spec, st, vcov=True)
    assert not fits.errors
    z, offset, _ = _design(spec, st.a, st.centered(spec.centering))
    z, w = z.astype(np.longdouble), st.scaled_w.astype(np.longdouble)
    resid = (st.y - offset) - (fits.coef.astype(np.longdouble)[:, None, :] @ z)[:, 0]
    u = influence(z, resid, gauss_jordan_inverse((z * w[:, None, :]) @ z.swapaxes(1, 2)), w)
    want = (u @ u.swapaxes(1, 2))[:, 1, 1]
    np.testing.assert_allclose(fits.vcov[:, 1, 1], want.astype(float), rtol=1e-10, atol=0)


@pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("n", [150, 1000])
def test_scenario4_bread_and_vcov_within_budget(n):
    """Scenario 4 chunks (16 replications) under ANOVA, ANCOVA and ANHECOVA:
    the coefficients, bread, residuals, covariance U·Uᵀ and ATE variance of
    every Gram-routed sample (κ < 10³; at n = 150 a few samples pass it and
    take the SVD) are within GRAM_BUDGET of the long-double oracle, the whole
    covariance within 1e-9, and the ATE variance equals U·Uᵀ's [1, 1] entry
    to rounding. Against the SVD route on the same samples, the Gram route's
    U·Uᵀ is no closer to the oracle and at worst 4 times as far as its own
    bread. Over seeds 0 to 5 the Gram route's U·Uᵀ was at most 2.3e-10 off
    at n = 150 and 1.9e-11 at n = 1000 (the SVD route's 4.1e-12 and 7.3e-13),
    and its bread 1.2e-10 and 1.1e-11. B·M·B's [1, 1] entry had been 1.6e-8
    and 5.4e-10 off, since it amplifies its factors' rounding by
    α = ‖B‖²‖M‖/‖BMB‖, up to 4e8 here (scenario 4's weights reach 1e6); U·Uᵀ
    adds no such factor, and what the Gram route's keeps is its bread's κ²ε,
    which the SVD route does not have."""
    scn = scenario(4, n=n)
    key = f"scenario=4|pi=None|n={n}"
    st = _draw_stack(scn, None, _rep_states(5, _digest(key), 0, 16))
    worst = {(route, q): 0.0 for route in ("gram", "svd") for q in ("vcov", "bread")}
    for model in ("ANOVA", "ANCOVA", "ANHECOVA"):
        spec = named_spec(model, 1)
        z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
        y, w = st.y - offset, st.scaled_w
        got = _solve(z, y, cmap.labels, w)
        assert not got[3]
        gram = np.flatnonzero(got[2][:, 0] / got[2][:, -1] < 0.99 * GRAM_RTOL**-0.5)
        sub = z[gram], y[gram], w[gram]
        err, o = _in_budget(*sub, [v[gram] for v in got[:2]])
        assert (o.kappa >= 10.0).all()
        for q, e in err.items():
            assert np.max(e) <= 1.0, (model, q)
        sw = np.sqrt(sub[2])
        ref = _svd_solve(sub[0] * sw[:, None, :], sub[1] * sw, cmap.labels)
        for route, (coef, bread) in (("gram", [v[gram] for v in got[:2]]), ("svd", ref[:2])):
            resid = sub[1] - (coef[:, None, :] @ sub[0])[:, 0]
            vcov = _vcov(sub[0], resid, bread, sub[2])
            for q, v in (("vcov", vcov), ("bread", bread)):
                worst[route, q] = np.maximum(worst[route, q], np.max(rel(v, getattr(o, q))))
            if route == "gram":
                assert np.max(rel(vcov, o.vcov)) <= 1e-9
                v = _ate_var(sub[0], resid, bread, sub[2])
                np.testing.assert_allclose(v, vcov[:, 1, 1], rtol=1e-13, atol=0)
    assert worst["svd", "vcov"] <= worst["gram", "vcov"] <= 4.0 * worst["gram", "bread"]


@pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("n", [150, 1000])
@pytest.mark.parametrize("sid", [1, 3, 4])
def test_ate_se_within_budget(sid, n):
    """A stacked fit's ate_se², for the specs whose ate_se has no centering
    penalty, is within GRAM_BUDGET's covariance budget for the [1, 1] entry
    of the long-double oracle in every Gram-routed sample of a
    16-replication chunk. Over seeds 0 to 3 it used at most 0.08 of that
    budget. Scenario 2's ate_se is checked at each fit's own weights by
    test_poisson_ate_se_within_budget."""
    pi = 0.5 if sid == 1 else None
    key = f"scenario={sid}|pi={pi}|n={n}"
    st = _draw_stack(scenario(sid, n=n), pi, _rep_states(5, _digest(key), 0, 16))
    for spec in SPECS1[:2] + SPECS1[5:6]:
        fits = _fit(spec, st)
        assert not fits.errors
        z, offset, _ = _design(spec, st.a, st.centered(spec.centering))
        o = oracle(z, st.y - offset, st.scaled_w)
        gram = fits.condition < 0.99 * GRAM_RTOL**-0.5
        err = rel(fits.ate_se[:, None] ** 2, o.ate_var[:, None]) / o.budget("ate_var")
        assert err[gram].max() <= 1.0, spec


@pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("n", [150, 1000])
@pytest.mark.parametrize("model", ["ANOVA", "ANCOVA", "ANHECOVA"])
def test_poisson_irls_solve_within_budget(model, n):
    """The weighted solve at a scenario 2 chunk's final IRLS weights (16
    replications): μ and the working response at each fit's own
    coefficients. Every Gram-routed sample's coefficients, bread, residuals,
    covariance and ATE variance are within GRAM_BUDGET of the long-double
    oracle. Unlike scenario 4's weights, μ is not rescaled
    (``_Stack.scaled_w``), and here every sample takes the Gram route."""
    scn = scenario(2, n=n)
    key = f"scenario=2|pi=0.5|n={scn.n}"
    st = _draw_stack(scn, 0.5, _rep_states(5, _digest(key), 0, 16))
    spec = named_spec(model, 1)
    fits = _fit(spec, st, "poisson")
    assert not fits.errors and fits.converged.all()
    z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
    eta = (fits.coef[:, None, :] @ z)[:, 0]
    mu = np.exp(eta + offset)
    work = eta + (st.y - mu) / mu
    got = _solve(z, work, cmap.labels, mu)
    assert not got[3]
    gram = np.flatnonzero(got[2][:, 0] / got[2][:, -1] < 0.99 * GRAM_RTOL**-0.5)
    assert gram.size == len(z)
    err, _ = _in_budget(z, work, mu, got[:2])
    for q, e in err.items():
        assert e.max() <= 1.0, q


@pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("n", [150, 1000])
@pytest.mark.parametrize("model", ["ANOVA", "ANCOVA", "ANHECOVA"])
def test_poisson_ate_se_within_budget(model, n):
    """A scenario 2 chunk's ate_se² (16 replications) is within GRAM_BUDGET's
    ATE-variance budget of the long-double sandwich at each fit's own μ: the
    bread ((Z·μ)Zᵀ)⁻¹ and the residual y - μ at the reported coefficients.
    Over seeds 0 to 3 it was at most 5.9e-14 off, 0.04 of the budget. A
    bread from the weights of the iterate before the reported one, as an
    IRLS loop that reports its last update has, was up to 1.9e-10 off at
    n = 150 and 6.1e-11 at n = 1000 (ANCOVA and ANHECOVA: 21 to 234 times
    the budget)."""
    scn = scenario(2, n=n)
    key = f"scenario=2|pi=0.5|n={scn.n}"
    st = _draw_stack(scn, 0.5, _rep_states(5, _digest(key), 0, 16))
    spec = named_spec(model, 1)
    fits = _fit(spec, st, "poisson")
    assert not fits.errors and fits.converged.all()
    z, offset, _ = _design(spec, st.a, st.centered(spec.centering))
    eta = (fits.coef[:, None, :] @ z)[:, 0]
    mu = np.exp(eta + offset)
    o = oracle(z, eta + (st.y - mu) / mu, mu)
    u = influence(z, st.y.astype(np.longdouble) - mu, o.bread)[:, 1]
    want = (u * u).sum(axis=1)
    err = rel(fits.ate_se[:, None] ** 2, want[:, None]) / o.budget("ate_var")
    assert err.max() <= 1.0
