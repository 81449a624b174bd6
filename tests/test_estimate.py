import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linadjust import (
    Dataset,
    EstimationError,
    KnownMean,
    SingularDesignError,
    build_design,
    draw,
    estimate_ate_variance_centered,
    fit_ols,
    fit_poisson_glm,
    fit_weighted,
    named_spec,
    parse_formula,
    rep_seed,
    run_grid,
    sandwich_vcov,
    scenario,
)
from oracle import HAS_LONG_DOUBLE, poisson_mle

ANOVA1 = named_spec("ANOVA", 1)
ANHECOVA1 = named_spec("ANHECOVA", 1)


def rss(fit, data):
    """Residual sum of squares reconstructed from the reported coefficients."""
    xc = data.x - data.x.mean(axis=0)
    pred = (
        fit.alpha
        + fit.beta * data.a
        + xc @ fit.gamma
        + data.a * (xc @ fit.delta)
    )
    return float(((data.y - pred) ** 2).sum())


def test_anova_is_difference_in_means():
    data = Dataset([1, 1, 0, 0], [0.0, 0.0, 0.0, 0.0], [3.0, 5.0, 1.0, 3.0])
    fit = fit_ols(ANOVA1, data)
    assert fit.ate_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)


def test_anhecova_matches_pseudoinverse_oracle(hand_data):
    """Full-model fit against a generic least-squares solve of the same problem."""
    a, x, y = hand_data.a, hand_data.x[:, 0], hand_data.y
    z = np.column_stack([np.ones(6), a, x, a * x])
    alpha, beta, gamma, delta = np.linalg.pinv(z) @ y
    fit = fit_ols(ANHECOVA1, hand_data)
    assert fit.labels == ("1", "A", "X1", "A:X1")
    assert fit.alpha == pytest.approx(alpha, abs=1e-12)
    assert fit.beta == pytest.approx(beta, abs=1e-12)
    assert fit.gamma[0] == pytest.approx(gamma, abs=1e-12)
    assert fit.delta[0] == pytest.approx(delta, abs=1e-12)
    # x already has zero sample mean, so the centered estimate is beta itself
    assert fit.ate_hat == pytest.approx(beta, abs=1e-12)


def test_fixed_coefficient_matches_offset_oracle(hand_data):
    """A pinned main effect turns into an offset in a generic solve."""
    spec = parse_formula("1 + A + X1@0.5 + A:X1", ["X1"])
    a, x, y = hand_data.a, hand_data.x[:, 0], hand_data.y
    z = np.column_stack([np.ones(6), a, a * x])
    alpha, beta, delta = np.linalg.pinv(z) @ (y - 0.5 * x)
    fit = fit_ols(spec, hand_data)
    assert fit.alpha == pytest.approx(alpha, abs=1e-12)
    assert fit.gamma[0] == 0.5
    assert fit.delta[0] == pytest.approx(delta, abs=1e-12)
    assert fit.ate_hat == pytest.approx(beta + delta * x.mean(), abs=1e-12)


def test_did_equals_gain_score_difference():
    rng = np.random.default_rng(21)
    n = 40
    y0 = rng.normal(2.0, 1.0, n)
    a = (rng.random(n) < 0.5).astype(float)
    y = y0 + 1.5 * a + rng.normal(size=n)
    data = Dataset(a, y0, y)
    fit = fit_ols(named_spec("DiD", 1), data)
    gain = y - y0
    oracle = gain[a == 1].mean() - gain[a == 0].mean()
    assert fit.ate_hat == pytest.approx(oracle, abs=1e-10)


def test_anova_sandwich_matches_two_sample_formula(hand_data):
    fit = fit_ols(ANOVA1, hand_data)
    a, y = hand_data.a, hand_data.y
    n = len(y)
    pi_hat = a.mean()
    m2_1 = ((y[a == 1] - y[a == 1].mean()) ** 2).mean()
    m2_0 = ((y[a == 0] - y[a == 0].mean()) ** 2).mean()
    expect = (m2_1 / pi_hat + m2_0 / (1 - pi_hat)) / n
    assert fit.vcov[1, 1] == pytest.approx(expect, rel=1e-10)
    assert fit.ate_se == pytest.approx(np.sqrt(expect), rel=1e-10)


def test_sandwich_near_classical_under_homoscedasticity():
    rng = np.random.default_rng(5)
    n = 5000
    a = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * a + 0.7 * x + rng.normal(size=n)
    data = Dataset(a, x, y)
    fit = fit_ols(named_spec("ANCOVA", 1), data)
    z = np.column_stack([np.ones(n), a, x - x.mean()])
    resid = data.y - z @ np.linalg.lstsq(z, y, rcond=None)[0]
    classical = resid.var() * np.linalg.inv(z.T @ z)
    # entries that vanish asymptotically are held to a small absolute band
    assert np.allclose(fit.vcov, classical, rtol=0.10, atol=2e-5)


def test_degenerate_outcome_gives_zero_vcov():
    data = Dataset([0, 1, 0, 1, 0, 1], np.arange(6.0), np.full(6, 3.0))
    fit = fit_ols(ANHECOVA1, data)
    assert np.allclose(fit.vcov, 0.0, atol=1e-20)
    assert fit.ate_se == pytest.approx(0.0, abs=1e-12)


def test_rss_monotone_under_relaxation():
    rng = np.random.default_rng(11)
    n = 60
    a = (rng.random(n) < 0.4).astype(float)
    x = rng.normal(size=(n, 2))
    y = 1 + a + x @ [0.5, -0.3] + a * x[:, 0] + rng.normal(size=n)
    data = Dataset(a, x, y)
    chain = [named_spec(m, 2) for m in ("ANOVA", "ANCOVA", "ANHECOVA")]
    values = [rss(fit_ols(s, data), data) for s in chain]
    assert values[0] >= values[1] >= values[2]
    did = rss(fit_ols(named_spec("DiD", 2), data), data)
    ldv = rss(fit_ols(named_spec("LDV", 2), data), data)
    assert ldv <= did + 1e-10


@given(st.floats(-100, 100, allow_nan=False))
def test_shift_invariance_of_centered_estimate(shift):
    rng = np.random.default_rng(7)
    n = 50
    a = np.array([0, 1] * 25, dtype=float)
    x = rng.normal(size=n)
    y = 2 * a + x + a * x + rng.normal(size=n)
    # scenario 4's weights 1/(pi(1 - pi)) run from 4 up; 1e6 is its weight at X = -5
    w = rng.permutation(np.geomspace(4.0, 1e6, n))
    for fit, weights in ((fit_ols, None), (fit_weighted, w)):
        base = fit(ANHECOVA1, Dataset(a, x, y, weights))
        moved = fit(ANHECOVA1, Dataset(a, x + shift, y, weights))
        assert moved.ate_hat == pytest.approx(base.ate_hat, abs=1e-8)
        assert moved.ate_se == pytest.approx(base.ate_se, rel=1e-6)


@given(st.floats(-100, 100, allow_nan=False))
def test_shift_invariance_of_centered_poisson_fit(shift):
    """Under empirical centering the Poisson GLM's treatment coefficient and its
    standard error do not move when the covariates shift."""
    rng = np.random.default_rng(8)
    n = 60
    a = np.array([0, 1] * 30, dtype=float)
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(1.0 + 0.5 * a + 0.3 * x + 0.2 * a * x)).astype(float)
    base = fit_poisson_glm(ANHECOVA1, Dataset(a, x, y))
    moved = fit_poisson_glm(ANHECOVA1, Dataset(a, x + shift, y))
    assert moved.ate_hat == pytest.approx(base.ate_hat, abs=1e-8)
    assert moved.ate_se == pytest.approx(base.ate_se, rel=1e-6)


def test_no_interactions_empirical_equals_known_sample_mean():
    rng = np.random.default_rng(13)
    n = 30
    a = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(3.0, 1.0, n)
    y = x + a + rng.normal(size=n)
    data = Dataset(a, x, y)
    emp = fit_ols(named_spec("ANCOVA", 1), data)
    km = fit_ols(named_spec("ANCOVA", 1).with_centering(KnownMean((x.mean(),))), data)
    assert emp.ate_hat == pytest.approx(km.ate_hat, abs=1e-12)


def test_centered_estimate_identity():
    """The empirically centered estimate is beta plus delta at the sample mean."""
    rng = np.random.default_rng(17)
    n = 80
    a = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(1.0, 1.0, (n, 2))
    y = a + x @ [1.0, -1.0] + a * (x @ [0.5, 0.25]) + rng.normal(size=n)
    data = Dataset(a, x, y)
    emp = fit_ols(named_spec("ANHECOVA", 2), data)
    km = fit_ols(named_spec("ANHECOVA", 2).with_centering(KnownMean((0.0, 0.0))), data)
    xbar = x.mean(axis=0)
    assert emp.ate_hat == pytest.approx(km.beta + km.delta @ xbar, abs=1e-10)


def test_residuals_orthogonal_to_free_columns(hand_data):
    fit = fit_ols(ANHECOVA1, hand_data)
    z, offset, _ = build_design(ANHECOVA1, hand_data)
    resid = hand_data.y - offset - z @ fit.free_coefs
    assert np.allclose(z.T @ resid, 0.0, atol=1e-10)


class TestWeighted:
    def test_unit_weights_match_unweighted(self, hand_data):
        w = Dataset(hand_data.a, hand_data.x, hand_data.y, np.ones(6))
        fw = fit_weighted(ANHECOVA1, w)
        fo = fit_ols(ANHECOVA1, hand_data)
        assert fw.ate_hat == pytest.approx(fo.ate_hat, abs=1e-12)
        assert fw.ate_se == pytest.approx(fo.ate_se, abs=1e-12)

    def test_constant_weights_leave_coefficients_alone(self, hand_data):
        w = Dataset(hand_data.a, hand_data.x, hand_data.y, np.full(6, 2.0))
        fw = fit_weighted(ANHECOVA1, w)
        fo = fit_ols(ANHECOVA1, hand_data)
        assert np.allclose(fw.free_coefs, fo.free_coefs, atol=1e-12)

    def test_requires_weights(self, hand_data):
        with pytest.raises(ValueError, match="weights"):
            fit_weighted(ANHECOVA1, hand_data)

    def test_fit_ols_rejects_weighted_data(self, hand_data):
        w = Dataset(hand_data.a, hand_data.x, hand_data.y, np.ones(6))
        with pytest.raises(ValueError, match="weight"):
            fit_ols(ANHECOVA1, w)

    @pytest.mark.parametrize("scale", [1e-300, 1e-24, 1e24, 1e300])
    def test_weight_scale_leaves_estimate_and_se_alone(self, scale):
        rng = np.random.default_rng(37)
        n = 50
        a = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=(n, 2))
        y = a + x @ [1.0, -0.5] + a * x[:, 0] + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, n)
        spec = parse_formula("1 + A + X1 + A:X1", ["X1", "X2"])
        base = fit_weighted(spec, Dataset(a, x, y, w))
        scaled = fit_weighted(spec, Dataset(a, x, y, scale * w))
        assert scaled.ate_hat == pytest.approx(base.ate_hat, rel=1e-10)
        assert scaled.ate_se == pytest.approx(base.ate_se, rel=1e-10)

    @pytest.mark.parametrize("formula", ["1 + A + X1 + X2 + A:X1 + A:X2", "1 + A + X1@0.5 + A:X2"])
    def test_vcov_is_the_explicit_weighted_hc0_formula(self, formula):
        rng = np.random.default_rng(41)
        n = 60
        a = (rng.random(n) < 0.4).astype(float)
        x = rng.normal(size=(n, 2))
        y = 1 + a + x @ [0.5, 1.0] + a * x[:, 1] + rng.normal(size=n) * (1 + a)
        data = Dataset(a, x, y, rng.uniform(0.2, 3.0, n))
        spec = parse_formula(formula, ["X1", "X2"])
        fit = fit_weighted(spec, data)
        z, offset, _ = build_design(spec, data)
        w = data.weights
        e = data.y - offset - z @ fit.free_coefs
        bread = np.linalg.inv(z.T @ (w[:, None] * z))
        score = z * (w * e)[:, None]
        expect = bread @ (score.T @ score) @ bread
        np.testing.assert_allclose(fit.vcov, expect, rtol=1e-9, atol=1e-9 * abs(expect).max())

    def test_weighting_moves_the_fit(self):
        rng = np.random.default_rng(23)
        n = 200
        a = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=n)
        y = a * (1 + x) + rng.normal(size=n)
        w = np.exp(x)
        fw = fit_weighted(ANOVA1, Dataset(a, x, y, w))
        fo = fit_ols(ANOVA1, Dataset(a, x, y))
        assert abs(fw.ate_hat - fo.ate_hat) > 1e-3


class TestPoisson:
    def test_null_model_log_ratio(self):
        y = np.array([3, 5, 4, 1, 2, 3], dtype=float)
        a = np.array([1, 1, 1, 0, 0, 0], dtype=float)
        data = Dataset(a, np.zeros(6), y)
        fit = fit_poisson_glm(ANOVA1, data)
        assert fit.ate_hat == pytest.approx(np.log(4.0 / 2.0), abs=1e-8)
        assert fit.converged

    def test_saturated_two_pattern_fit(self):
        """Two covariate levels per arm: fitted means equal cell means."""
        a = np.array([1.0] * 8 + [0.0] * 8)
        x = np.array([0.0, 1.0] * 8)
        rng = np.random.default_rng(2)
        y = rng.poisson(4.0, 16).astype(float) + 1.0
        data = Dataset(a, x, y)
        fit = fit_poisson_glm(named_spec("ANHECOVA", 1), data)
        xc = x - x.mean()
        eta = fit.alpha + fit.beta * a + fit.gamma[0] * xc + fit.delta[0] * a * xc
        mu = np.exp(eta)
        for aa in (0.0, 1.0):
            for xx in (0.0, 1.0):
                cell = (a == aa) & (x == xx)
                assert mu[cell].mean() == pytest.approx(y[cell].mean(), rel=1e-7)

    def test_constant_outcome(self):
        data = Dataset([1, 1, 0, 0, 1, 0], np.arange(6.0), np.full(6, 7.0))
        fit = fit_poisson_glm(ANOVA1, data)
        assert fit.ate_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.alpha == pytest.approx(np.log(7.0), abs=1e-9)

    # 1000.004 is within np.allclose's relative tolerance of 1000, but not a count
    @pytest.mark.parametrize("y1", [-1.0, 1000.004], ids=["negative", "near-integer"])
    def test_rejects_negative_counts(self, y1):
        data = Dataset([1, 0, 1, 0], [0.0] * 4, [1.0, y1, 2.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            fit_poisson_glm(ANOVA1, data)

    def test_rejects_weighted_data(self):
        data = Dataset([1, 0, 1, 0], [0.0] * 4, [1.0, 1.0, 2.0, 0.0], np.ones(4))
        with pytest.raises(ValueError):
            fit_poisson_glm(ANOVA1, data)

    def test_separation_blows_up_loudly(self):
        a = np.array([1.0] * 5 + [0.0] * 5)
        y = np.concatenate([np.zeros(5), np.full(5, 9.0)])
        data = Dataset(a, np.arange(10.0), y)
        with pytest.raises(EstimationError):
            fit_poisson_glm(ANOVA1, data)

    @pytest.mark.parametrize("model", ["ANCOVA", "ANHECOVA"])
    def test_a_linear_predictor_past_700_is_a_divergence(self, model):
        """The controls' counts are 0 at x = -1000 and at x = 0, and 5 at x = 1:
        no MLE exists, and the first Newton steps take the linear predictor at
        x = -1000 past -700, where exp soon underflows to 0."""
        a = np.array([1.0] * 5 + [0.0] * 3)
        x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, -1000.0, 0.0, 1.0])
        y = np.array([2, 3, 1, 4, 5, 0, 0, 5], dtype=float)
        with pytest.raises(EstimationError, match="diverged") as exc:
            fit_poisson_glm(named_spec(model, 1), Dataset(a, x, y))
        assert exc.value.cause == "Poisson divergence"

    def test_collapsed_irls_weights_are_divergence_not_singularity(self):
        """Controls at x = -1, -2 with y = 0, 1 have no log-linear MLE:
        the fitted control mean at x = -1 goes to 0 and takes its IRLS
        weight with it, while the design itself has full rank."""
        a = np.array([1.0] * 8 + [0.0] * 2)
        x = np.r_[np.linspace(-1.0, 2.0, 8), -1.0, -2.0]
        y = np.array([2, 3, 1, 4, 5, 3, 6, 4, 0, 1], dtype=float)
        data = Dataset(a, x, y)
        with pytest.raises(EstimationError, match="diverged") as exc:
            fit_poisson_glm(ANHECOVA1, data)
        assert not isinstance(exc.value, SingularDesignError)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_free_columns_are_the_log_ratio_of_the_arm_means(self, seed):
        """Under 1 + A, ate_hat is log(ȳ₁/ȳ₀), and its HC0 standard error is
        the delta method's for that ratio, from the closed-form start and one
        evaluation."""
        data = draw(scenario(2, n=150), seed, pi=0.3).data
        fit = fit_poisson_glm(ANOVA1, data)
        y1, y0 = data.y[data.a == 1], data.y[data.a == 0]
        m1, m0 = y1.mean(), y0.mean()
        assert fit.ate_hat == pytest.approx(np.log(m1 / m0), rel=0, abs=1e-14)
        var = sum(((y - m) ** 2).sum() / (y.size * m) ** 2 for y, m in ((y1, m1), (y0, m0)))
        assert fit.ate_se == pytest.approx(np.sqrt(var), rel=1e-13)
        assert fit.converged and fit.iterations == 1

    @pytest.mark.skipif(not HAS_LONG_DOUBLE, reason="long double is double here")
    @pytest.mark.parametrize("seed", range(6))
    def test_two_free_columns_with_an_offset_match_long_double_newton(self, seed):
        """Under 1 + A + X1@0.5 the fixed coefficient is an offset, which each
        arm's closed-form log rate takes in; coefficients and ate_se agree
        with Newton's method run in long double."""
        spec = parse_formula("1 + A + X1@0.5", ["X1"])
        data = draw(scenario(2, n=150), seed, pi=0.3).data
        fit = fit_poisson_glm(spec, data)
        z, offset, _ = build_design(spec, data)
        assert np.abs(offset).max() > 0.1
        coef, var = poisson_mle(z.T[None], offset[None], data.y[None])
        np.testing.assert_allclose(fit.free_coefs, coef[0].astype(float), rtol=0, atol=1e-14)
        assert fit.ate_se**2 == pytest.approx(float(var[0]), rel=1e-13)
        assert fit.converged and fit.iterations == 1

    def test_an_arm_without_counts_is_a_divergence_in_run_grid(self):
        """At n = 20 and pi = 0.9 the control arm is often one or two rows, all
        of them 0 in about 5% of draws: its log rate is -inf, no MLE exists,
        and run_grid counts the draw as a Poisson divergence under every spec."""
        n, pi, reps = 20, 0.9, 300
        key = f"scenario=2|pi={pi}|n={n}"
        zero = empty = 0
        for r in range(reps):
            d = draw(scenario(2, n=n), rep_seed(3, key, r), pi=pi).data
            s1, n1 = d.y[d.a == 1].sum(), d.a.sum()
            empty += n1 in (0, n)
            zero += n1 not in (0, n) and 0 in (s1, d.y.sum() - s1)
        assert zero > 10
        for spec in (ANOVA1, parse_formula("1 + A + X1@0.5", ["X1"]), named_spec("ANCOVA", 1)):
            with pytest.raises(EstimationError) as exc:
                run_grid(scenario(2, n=n), [spec], [pi], reps, seed=3)
            assert str(exc.value).endswith(
                f"failed in {zero + empty}/{reps} replications "
                f"(Poisson divergence {zero}, empty arm {empty})"
            )

    def test_vcov_is_the_explicit_hc0_formula_at_the_fit(self):
        rng = np.random.default_rng(43)
        n = 80
        a = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(0.5 + 0.4 * a + 0.3 * x)).astype(float)
        data = Dataset(a, x, y)
        fit = fit_poisson_glm(ANHECOVA1, data)
        assert fit.converged
        z, offset, _ = build_design(ANHECOVA1, data)
        mu = np.exp(offset + z @ fit.free_coefs)
        bread = np.linalg.inv(z.T @ (mu[:, None] * z))
        score = z * (y - mu)[:, None]
        expect = bread @ (score.T @ score) @ bread
        np.testing.assert_allclose(fit.vcov, expect, rtol=1e-9, atol=1e-9 * abs(expect).max())


class TestErrors:
    def test_singular_design_names_columns(self):
        x = np.column_stack([np.arange(8.0), np.arange(8.0)])
        data = Dataset([0, 1] * 4, x, np.arange(8.0))
        with pytest.raises(SingularDesignError) as exc:
            fit_ols(named_spec("ANCOVA", 2), data)
        assert exc.value.columns

    @pytest.mark.parametrize("scale", [1.0, 1e-24])
    def test_rank_rule_names_the_same_columns_at_any_weight_scale(self, scale):
        rng = np.random.default_rng(31)
        n = 40
        x = rng.normal(size=(n, 3))
        x[:, 1] = x[:, 0]
        data = Dataset([0, 1] * (n // 2), x, rng.normal(size=n), np.full(n, scale))
        with pytest.raises(SingularDesignError) as exc:
            fit_weighted(named_spec("ANCOVA", 3), data)
        assert exc.value.columns == ("X1", "X2")

    @pytest.mark.parametrize("formula", ["1 + A + X1 + A:X1", "1 + A + A:X1"])
    def test_a_failed_fit_raises_without_a_warning(self, formula):
        """Covariates near 1e160 fail the rank rule; no centering penalty is
        computed from the failed fit's NaN coefficients, so nothing overflows."""
        rng = np.random.default_rng(37)
        a = (rng.random(50) < 0.5).astype(float)
        data = Dataset(a, 1e160 * rng.normal(size=(50, 2)), a + rng.normal(size=50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDesignError):
                fit_ols(parse_formula(formula, ["X1", "X2"]), data)

    def test_a_failed_centering_refit_says_so(self):
        """One treated unit: the pinned model's own design (1, A) is fine, but the
        full model refitted for the centering correction is singular, and its
        columns A and A:X1 are not the pinned model's. The error says which fit
        failed; its cause, which run_grid counts, stays "singular design"."""
        data = draw(scenario(1, n=8), 1, pi=0.3).data
        spec = parse_formula("1 + A + X1@0.5 + A:X1@-0.25", ["X1"])
        with pytest.raises(SingularDesignError) as exc:
            fit_ols(spec, data)
        assert str(exc.value) == (
            "singular design in the full model refitted for the centering correction;"
            " offending columns: A, A:X1"
        )
        assert (exc.value.cause, exc.value.columns, exc.value.refit) == (
            "singular design", ("A", "A:X1"), True
        )
        with pytest.raises(SingularDesignError) as own:
            fit_ols(named_spec("ANHECOVA", 1), data)
        assert str(own.value) == "singular design; offending columns: A, A:X1"
        assert not own.value.refit

    @pytest.mark.parametrize("arm", [1, 0], ids=["all-treated", "all-control"])
    def test_empty_arm(self, arm):
        """The fit and the sandwich report an empty arm alike, not as a singular design."""
        data = Dataset([arm] * 4, np.arange(4.0), np.arange(4.0))
        with pytest.raises(EstimationError, match="arm") as fit:
            fit_ols(ANOVA1, data)
        with pytest.raises(EstimationError) as sandwich:
            sandwich_vcov(ANOVA1, data, np.zeros(2))
        assert type(sandwich.value) is EstimationError
        assert (str(sandwich.value), sandwich.value.cause) == (str(fit.value), "empty arm")

    def test_covariate_count_mismatch(self, hand_data):
        with pytest.raises(ValueError, match="dataset has p=1 covariates but spec expects 2"):
            fit_ols(named_spec("ANCOVA", 2), hand_data)

    def test_sandwich_rejects_a_wrong_length_vector(self, hand_data):
        with pytest.raises(ValueError, match=r"expected 4 free coefficients, got shape \(2,\)"):
            sandwich_vcov(ANHECOVA1, hand_data, [1.0, 2.0])

    def test_sandwich_on_a_singular_design(self, hand_data):
        data = Dataset(hand_data.a, np.column_stack([hand_data.x, hand_data.x]), hand_data.y)
        with pytest.raises(SingularDesignError, match="offending columns: X1, X2"):
            sandwich_vcov(named_spec("ANCOVA", 2), data, np.zeros(4))

    def test_centered_variance_needs_the_full_fit(self, hand_data):
        sub = fit_ols(named_spec("ANCOVA", 1), hand_data)
        with pytest.raises(ValueError, match=r"fit_full must be the all-free \(ANHECOVA\) fit"):
            estimate_ate_variance_centered(sub.spec, hand_data, sub, sub)

    def test_centered_variance_checks_dimensions(self, hand_data):
        sub = fit_ols(named_spec("ANCOVA", 1), hand_data)
        full = fit_ols(ANHECOVA1, hand_data)
        with pytest.raises(ValueError, match="dimension mismatch between spec and fits"):
            estimate_ate_variance_centered(named_spec("ANCOVA", 2), hand_data, full, sub)

    def test_centered_variance_checks_the_datasets_covariates(self, hand_data):
        sub = fit_ols(named_spec("ANCOVA", 1), hand_data)
        full = fit_ols(ANHECOVA1, hand_data)
        wide = Dataset(hand_data.a, np.column_stack([hand_data.x, hand_data.x]), hand_data.y)
        with pytest.raises(ValueError, match="dataset has p=2 covariates but spec expects 1"):
            estimate_ate_variance_centered(named_spec("ANCOVA", 1), wide, full, sub)


def test_sandwich_vcov_matches_fit(hand_data):
    fit = fit_ols(ANHECOVA1, hand_data)
    v = sandwich_vcov(ANHECOVA1, hand_data, fit)
    assert np.array_equal(v, fit.vcov)
    assert np.allclose(v, v.T, atol=1e-15)


@pytest.mark.parametrize("name", ["ANOVA", "ANCOVA", "ANHECOVA"])
@pytest.mark.parametrize("sid", [1, 3, 4], ids=["ols-s1", "ols-s3", "wls-s4"])
def test_sandwich_vcov_is_the_fits_vcov_bit_for_bit(sid, name):
    """At a fit's own coefficients the recomputed sandwich is the fit's, because
    both go through the kernel's design, residual and weights."""
    spec = named_spec(name, 1)
    fit_fn = fit_weighted if sid == 4 else fit_ols
    for seed in range(4):
        data = draw(scenario(sid, n=300), seed, pi=0.4).data
        fit = fit_fn(spec, data)
        assert np.array_equal(sandwich_vcov(spec, data, fit), fit.vcov)


def test_hc1_inflates_variance(hand_data):
    h0 = fit_ols(ANHECOVA1, hand_data)
    h1 = fit_ols(ANHECOVA1, hand_data, hc1=True)
    assert h1.vcov[1, 1] == pytest.approx(h0.vcov[1, 1] * 6 / (6 - 4), rel=1e-12)


def test_centered_variance_correction_terms(hand_data):
    """Pinned-interaction specs get no correction; the full model adds
    the quadratic form of its own interaction estimate."""
    full = fit_ols(ANHECOVA1, hand_data)
    sub = fit_ols(named_spec("ANCOVA", 1), hand_data)
    n = hand_data.n
    v_sub = estimate_ate_variance_centered(named_spec("ANCOVA", 1), hand_data, full, sub)
    assert v_sub == pytest.approx(n * sub.vcov[1, 1], rel=1e-12)
    v_full = estimate_ate_variance_centered(ANHECOVA1, hand_data, full, full)
    sigma_hat = np.cov(hand_data.x.T, ddof=0).reshape(1, 1)
    expect = n * full.vcov[1, 1] + full.delta @ sigma_hat @ full.delta
    assert v_full == pytest.approx(float(expect), rel=1e-10)
    assert full.ate_se == pytest.approx(np.sqrt(v_full / n), rel=1e-10)


def test_centered_variance_estimate_is_the_fits_ate_se():
    """The plug-in n·var(ate_hat) reads the same variance as the fit's ate_se:
    on scenario 4 at n = 150, where B·M·B's vcov[1, 1] was up to 1.4e-8 off
    the influence row's Σuᵢ², it equals n·ate_se² to rounding."""
    subs = [named_spec("ANCOVA", 1), parse_formula("1 + A + A:X1", ["X1"]), ANHECOVA1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped estimate is clamped alike on both sides
        for seed in range(40):
            d = draw(scenario(4, n=150), seed).data
            full = fit_weighted(ANHECOVA1, d)
            for sub in subs:
                fit_sub = fit_weighted(sub, d)
                got = estimate_ate_variance_centered(sub, d, full, fit_sub)
                assert got == pytest.approx(d.n * fit_sub.ate_se**2, rel=1e-13, abs=0), (seed, sub)


def test_to_dict_round_trips_through_json(hand_data):
    import json

    fit = fit_ols(ANHECOVA1, hand_data)
    payload = json.loads(json.dumps(fit.to_dict()))
    assert payload["ate_hat"] == fit.ate_hat
    assert payload["n_used"] == 6


class TestClamp:
    """A sub-model whose centering penalty outweighs its sandwich variance."""

    DATA = Dataset(
        a=[1, 1, 1, 1, 0, 0, 0, 0],
        x=[-0.626, 1.107, 0.539, 0.829, -0.602, -0.557, -0.822, -0.541],
        y=[-1.943, 0.429, -1.5, 0.079, -1.298, 0.117, -1.192, -0.02],
    )
    SPEC = parse_formula("1 + A + A:X1", ["X1"])

    def test_fit_clamps_the_se_and_warns_at_the_caller(self):
        with pytest.warns(RuntimeWarning, match="clamped at zero") as rec:
            fit = fit_ols(self.SPEC, self.DATA)
        assert fit.se_clamped
        assert fit.ate_se == 0.0
        assert len(rec) == 1
        assert rec[0].filename == __file__

    def test_variance_estimate_clamps_and_warns_at_the_caller(self):
        with pytest.warns(RuntimeWarning):
            fit = fit_ols(self.SPEC, self.DATA)
        full = fit_ols(ANHECOVA1, self.DATA)
        with pytest.warns(RuntimeWarning, match="clamped at zero") as rec:
            total = estimate_ate_variance_centered(self.SPEC, self.DATA, full, fit)
        assert total == 0.0
        assert [r.filename for r in rec] == [__file__]


class TestProperties:
    """Invariances of the fit, at covariate scales from 1e-6 to 1e6."""

    SPECS = ["1 + A + X1 + X2 + A:X1 + A:X2", "1 + A + A:X1", "1 + A + X1@0.5 + X2 + A:X2"]

    @staticmethod
    def data(scale, weighted=False, seed=53):
        rng = np.random.default_rng(seed)
        n = 80
        a = (rng.random(n) < 0.4).astype(float)
        x = rng.normal(3.0, 1.0, (n, 2))
        y = 1 + a + x @ [0.5, -1.0] + a * x[:, 0] + rng.normal(size=n) * (1 + a)
        return Dataset(a, scale * x, y, rng.uniform(0.2, 3.0, n) if weighted else None)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("formula", SPECS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_row_permutation_leaves_estimate_and_se_alone(self, scale, formula, weighted):
        data = self.data(scale, weighted)
        spec = parse_formula(formula, ["X1", "X2"])
        fit = fit_weighted if weighted else fit_ols
        perm = np.random.default_rng(59).permutation(data.n)
        w = None if data.weights is None else data.weights[perm]
        base = fit(spec, data)
        moved = fit(spec, Dataset(data.a[perm], data.x[perm], data.y[perm], w))
        assert moved.ate_hat == pytest.approx(base.ate_hat, rel=1e-9)
        assert moved.ate_se == pytest.approx(base.ate_se, rel=1e-9)

    def test_row_permutation_of_a_poisson_fit(self):
        rng = np.random.default_rng(61)
        n = 80
        a = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(0.5 + 0.4 * a + 0.3 * x)).astype(float)
        perm = rng.permutation(n)
        base = fit_poisson_glm(ANHECOVA1, Dataset(a, x, y))
        moved = fit_poisson_glm(ANHECOVA1, Dataset(a[perm], x[perm], y[perm]))
        assert moved.ate_hat == pytest.approx(base.ate_hat, rel=1e-9)
        assert moved.ate_se == pytest.approx(base.ate_se, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("formula", SPECS)
    def test_known_sample_mean_equals_empirical_estimate(self, scale, formula):
        data = self.data(scale)
        spec = parse_formula(formula, ["X1", "X2"])
        emp = fit_ols(spec, data)
        known = fit_ols(spec.with_centering(KnownMean(tuple(data.x.mean(axis=0)))), data)
        assert known.ate_hat == pytest.approx(emp.ate_hat, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_covariate_scale_leaves_free_fits_alone(self, scale):
        spec = parse_formula(self.SPECS[0], ["X1", "X2"])
        base = fit_ols(spec, self.data(1.0))
        scaled = fit_ols(spec, self.data(scale))
        assert scaled.ate_hat == pytest.approx(base.ate_hat, rel=1e-9)
        assert scaled.ate_se == pytest.approx(base.ate_se, rel=1e-9)
        assert scaled.condition_number > base.condition_number


class TestDiagnostics:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_condition_number_is_that_of_the_solved_design(self, weighted):
        data = TestProperties.data(1.0, weighted)
        spec = named_spec("ANHECOVA", 2)
        fit = (fit_weighted if weighted else fit_ols)(spec, data)
        z = build_design(spec, data)[0]
        if weighted:
            z = z * np.sqrt(data.weights)[:, None]
        s = np.linalg.svd(z, compute_uv=False)
        assert fit.condition_number == pytest.approx(s[0] / s[-1], rel=1e-12)
        assert fit.iterations == 1
        record = fit.to_dict()
        assert record["condition_number"] == fit.condition_number
        assert record["iterations"] == 1

    def test_irls_iterations_are_counted(self, monkeypatch):
        rng = np.random.default_rng(67)
        a = (rng.random(60) < 0.5).astype(float)
        x = rng.normal(size=60)
        data = Dataset(a, x, rng.poisson(np.exp(1.0 + 0.3 * a + 0.5 * x)).astype(float))
        fit = fit_poisson_glm(ANHECOVA1, data)
        assert fit.converged and 2 <= fit.iterations < 100
        monkeypatch.setattr("linadjust.estimate.IRLS_MAX_ITER", 2)
        short = fit_poisson_glm(ANHECOVA1, data)
        assert not short.converged
        assert short.iterations == 2
        assert short.to_dict()["iterations"] == 2
