import numpy as np
import pytest

from linadjust import (
    NAMED_SPECS,
    FREE,
    CoefConstraint,
    ExactMoments,
    GaussianArmSampler,
    ModelSpec,
    PopulationSpec,
    SingularDesignError,
    ancova_anova_gap,
    asymptotic_variance_centered,
    asymptotic_variance_known_mean,
    make_counterexample,
    named_spec,
    parse_formula,
    population_from_dict,
    population_to_dict,
    random_moment_population,
    solve_population,
    variance_gap_theorem2,
)

ANOVA1 = named_spec("ANOVA", 1)
ANCOVA1 = named_spec("ANCOVA", 1)
ANHECOVA1 = named_spec("ANHECOVA", 1)


def spec_of(gamma, delta):
    mk = lambda v: FREE if v is None else CoefConstraint(v)
    return ModelSpec(tuple(mk(g) for g in gamma), tuple(mk(d) for d in delta))


class TestClosedForms:
    """The single-covariate worked population: Sigma=1, Omega1=2.5,
    Omega0=1, mu1=5, mu0=3, q1=32.25, q0=11."""

    def test_full_model_coefficients(self, s1_population):
        sol = solve_population(ANHECOVA1, s1_population)
        assert sol.gamma[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.delta[0] == pytest.approx(1.5, abs=1e-12)
        assert sol.alpha == pytest.approx(3.0, abs=1e-12)
        assert sol.beta == pytest.approx(2.0, abs=1e-12)

    def test_ancova_coefficient_blends_arms(self, s1_moments):
        """The single main-effect coefficient solves to gamma_f + pi*delta_f."""
        for pi in (0.1, 0.3, 0.5, 0.9):
            pop = PopulationSpec(pi=pi, moments=s1_moments)
            sol = solve_population(ANCOVA1, pop)
            assert sol.gamma[0] == pytest.approx(1.0 + pi * 1.5, abs=1e-12)
            assert sol.delta[0] == 0.0

    def test_interactions_only_coefficient(self, s1_population):
        spec = parse_formula("1 + A + A:X1", ["X1"])
        sol = solve_population(spec, s1_population)
        assert sol.delta[0] == pytest.approx(2.5, abs=1e-12)

    def test_beta_is_always_the_effect(self, s1_moments):
        """Any constraint choice leaves the treatment coefficient at mu1 - mu0."""
        specs = [
            ANOVA1,
            ANCOVA1,
            ANHECOVA1,
            parse_formula("1 + A + X1@3 + A:X1@-2", ["X1"]),
            named_spec("DiD", 1),
        ]
        pop = PopulationSpec(pi=0.7, moments=s1_moments)
        for spec in specs:
            sol = solve_population(spec, pop)
            assert sol.beta == pytest.approx(2.0, abs=1e-12)
            assert sol.beta_ate == pytest.approx(2.0, abs=1e-12)

    def test_known_mean_variances(self, s1_population):
        v = asymptotic_variance_known_mean(ANOVA1, s1_population)
        # residual second moments are q_a - mu_a^2 when nothing is adjusted
        expect = (32.25 - 25.0) / 0.3 + (11.0 - 9.0) / 0.7
        assert v == pytest.approx(expect, abs=1e-12)
        assert asymptotic_variance_known_mean(ANHECOVA1, s1_population) == pytest.approx(
            1 / 0.3 + 1 / 0.7, abs=1e-12
        )

    def test_centered_penalty_is_quadratic_form(self, s1_population):
        v = asymptotic_variance_known_mean(ANHECOVA1, s1_population)
        vc = asymptotic_variance_centered(ANHECOVA1, s1_population)
        assert vc - v == pytest.approx(1.5 * 1.0 * 1.5, abs=1e-10)

    def test_no_interaction_centering_costs_nothing(self, s1_population):
        v = asymptotic_variance_known_mean(ANCOVA1, s1_population)
        vc = asymptotic_variance_centered(ANCOVA1, s1_population)
        assert vc == pytest.approx(v, abs=1e-12)

    def test_remark_equal_variance_at_half(self, s1_moments):
        pop = PopulationSpec(pi=0.5, moments=s1_moments)
        vc_sub = asymptotic_variance_centered(ANCOVA1, pop)
        vc_full = asymptotic_variance_centered(ANHECOVA1, pop)
        assert vc_sub == pytest.approx(vc_full, abs=1e-12)
        assert vc_full == pytest.approx(6.25, abs=1e-12)


def test_first_order_conditions_hold_exactly():
    """Residual cross-moments with every free regressor vanish."""
    rng = np.random.default_rng(2024)
    for _ in range(30):
        pop = random_moment_population(rng)
        p = pop.p
        mom = pop.moments
        constraints = []
        for side in ("gamma", "delta"):
            row = []
            for _j in range(p):
                u = rng.random()
                row.append(None if u < 0.5 else (0.0 if u < 0.8 else float(rng.normal())))
            constraints.append(row)
        spec = spec_of(*constraints)
        sol = solve_population(spec, PopulationSpec(pi=pop.pi, moments=mom))
        gam, dlt = np.asarray(sol.gamma), np.asarray(sol.delta)
        pi = pop.pi
        omega_bar = pi * mom.omega1 + (1 - pi) * mom.omega0
        # E[X eps] and E[X eps A] rows from the moment record
        r_gamma = omega_bar - mom.sigma @ gam - pi * mom.sigma @ dlt
        r_delta = pi * (mom.omega1 - mom.sigma @ gam - mom.sigma @ dlt)
        for j in spec.unrestricted_gamma():
            assert abs(r_gamma[j]) < 1e-9
        for j in spec.unrestricted_delta():
            assert abs(r_delta[j]) < 1e-9


def test_saturated_population_has_zero_variance():
    sampler = GaussianArmSampler(
        sigma=np.eye(2),
        b0=1.0,
        b1=2.0,
        l0=np.array([0.5, -1.0]),
        l1=np.array([1.0, 0.0]),
        s0=0.0,
        s1=0.0,
    )
    pop = PopulationSpec(pi=0.4, moments=sampler.moments())
    assert asymptotic_variance_known_mean(named_spec("ANHECOVA", 2), pop) < 1e-12


class TestCounterexamples:
    def test_ancova_worse_gap(self):
        pop = make_counterexample("AncovaWorse", 0.3)
        gap = ancova_anova_gap(pop)
        closed = (2 * 0.3 - 1) ** 2 / (0.3 * 0.7)
        assert gap == pytest.approx(closed, abs=1e-9)
        direct = asymptotic_variance_known_mean(
            ANCOVA1, pop
        ) - asymptotic_variance_known_mean(ANOVA1, pop)
        assert gap == pytest.approx(direct, abs=1e-12)
        assert gap > 0

    def test_ancova_worse_needs_imbalance(self):
        with pytest.raises(ValueError, match="1/2"):
            make_counterexample("AncovaWorse", 0.5)

    def test_interactions_only_worse_gap(self):
        pop = make_counterexample("InteractionsOnlyWorseCentered", 0.75)
        spec = parse_formula("1 + A + A:X1", ["X1"])
        gap = asymptotic_variance_centered(spec, pop) - asymptotic_variance_centered(
            ANOVA1, pop
        )
        assert gap == pytest.approx((2 * 0.75 - 1) * 1.0 / 0.75, abs=1e-9)
        assert gap > 0

    def test_interactions_only_worse_needs_large_pi(self):
        with pytest.raises(ValueError):
            make_counterexample("InteractionsOnlyWorseCentered", 0.4)

    def test_interactions_only_can_lose_at_small_pi_outside_the_family(self):
        """make_counterexample's family has no counterexample at pi <= 1/2,
        but the centered interactions-only estimator can still trail ANOVA there."""
        sampler = GaussianArmSampler(
            sigma=[[4.847]], b0=-1.956, b1=-1.938, l0=[1.992], l1=[-0.647], s0=1.070, s1=1.744
        )
        pop = PopulationSpec(pi=0.3, sampler=sampler)
        v_io = asymptotic_variance_centered(parse_formula("1 + A + A:X1", ["X1"]), pop)
        v_anova = asymptotic_variance_centered(ANOVA1, pop)
        assert v_anova == pytest.approx(46.013, abs=5e-4)
        assert v_io == pytest.approx(53.773, abs=5e-4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_counterexample("nope", 0.3)

    def test_counterexample_sampler_agrees_with_moments(self):
        pop = make_counterexample("AncovaWorse", 0.3)
        assert pop.sampler is not None
        m_closed = pop.moments
        m_sampler = pop.sampler.moments()
        assert np.allclose(m_closed.omega1, m_sampler.omega1, atol=1e-12)
        assert m_closed.q0 == pytest.approx(m_sampler.q0, abs=1e-12)


class TestTheorem2Gap:
    def test_full_vs_anova_gap(self, s1_population):
        gap = variance_gap_theorem2(ANHECOVA1, ANOVA1, s1_population)
        direct = asymptotic_variance_centered(
            ANOVA1, s1_population
        ) - asymptotic_variance_centered(ANHECOVA1, s1_population)
        assert gap == pytest.approx(direct, abs=1e-9)

    def test_self_gap_is_zero(self, s1_population):
        assert variance_gap_theorem2(ANHECOVA1, ANHECOVA1, s1_population) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_condition_violation_raises(self, s1_population):
        with pytest.raises(ValueError, match="condition"):
            variance_gap_theorem2(ANCOVA1, ANOVA1, s1_population)


def test_sampler_draws_match_moments():
    sampler = GaussianArmSampler(
        sigma=np.array([[2.0, 0.5], [0.5, 1.0]]),
        b0=1.0,
        b1=4.0,
        l0=np.array([0.3, -0.2]),
        l1=np.array([1.0, 0.7]),
        s0=0.8,
        s1=1.2,
    )
    rng = np.random.default_rng(77)
    x, y1, y0 = sampler.potential(400_000, rng)
    mom = sampler.moments()
    assert np.allclose(np.cov(x.T, ddof=0), mom.sigma, atol=0.02)
    assert np.allclose(x.T @ y1 / len(y1), mom.omega1, atol=0.03)
    assert y0.mean() == pytest.approx(mom.mu0, abs=0.02)
    assert (y1**2).mean() == pytest.approx(mom.q1, rel=0.02)


def test_sampler_only_population_is_exact():
    sampler = GaussianArmSampler(
        sigma=np.array([[1.5]]),
        b0=0.0,
        b1=1.0,
        l0=np.array([0.5]),
        l1=np.array([2.0]),
        s0=1.0,
        s1=0.7,
    )
    alone = PopulationSpec(pi=0.3, sampler=sampler)
    exact = PopulationSpec(pi=0.3, moments=sampler.moments())
    for spec in (ANOVA1, ANCOVA1, ANHECOVA1, parse_formula("1 + A + A:X1", ["X1"])):
        got, want = solve_population(spec, alone), solve_population(spec, exact)
        assert (got.alpha, got.beta, got.beta_ate) == (want.alpha, want.beta, want.beta_ate)
        assert np.array_equal(got.gamma, want.gamma)
        assert np.array_equal(got.delta, want.delta)
        for variance in (asymptotic_variance_known_mean, asymptotic_variance_centered):
            assert variance(spec, alone) == variance(spec, exact)


def test_random_moment_population_is_well_posed():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pop = random_moment_population(rng)
        assert 0.0 < pop.pi < 1.0
        assert 1 <= pop.p <= 3
        np.linalg.cholesky(pop.moments.sigma)
        v = asymptotic_variance_known_mean(named_spec("ANHECOVA", pop.p), pop)
        assert v >= 0.0


class TestSerialization:
    def test_round_trip(self, s1_population):
        d = population_to_dict(s1_population)
        back = population_from_dict(d)
        assert back.pi == s1_population.pi
        assert np.allclose(back.moments.sigma, s1_population.moments.sigma)
        assert back.moments.q1 == s1_population.moments.q1

    def test_json_compatible(self, s1_population):
        import json

        text = json.dumps(population_to_dict(s1_population))
        back = population_from_dict(json.loads(text))
        assert back.moments.mu1 == 5.0

    def test_missing_field(self):
        with pytest.raises(ValueError):
            population_from_dict({"pi": 0.5})

    @pytest.mark.parametrize(
        "field, value, message",
        [("pi", "0.3", "pi must be a number, got '0.3'"),
         ("mu1", True, "mu1 must be a number, got True"),
         ("sigma", np.eye(1), "sigma must be a list of lists of numbers"),
         ("omega1", [None], r"omega1 must be a list of numbers, got \[None\]")],
    )
    def test_fields_must_be_json_numbers(self, s1_population, field, value, message):
        """A record is JSON: strings, bools, None and arrays are refused by name,
        where float() and np.asarray would have read them."""
        d = population_to_dict(s1_population)
        d[field] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            population_from_dict(d)

    def test_record_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="^population record must be a JSON object, got list$"):
            population_from_dict([1, 2])


def test_solve_population_checks_covariate_count(s1_population):
    with pytest.raises(ValueError, match="spec has p=2 covariates but population has p=1"):
        solve_population(named_spec("ANCOVA", 2), s1_population)


@pytest.mark.parametrize(
    "sigma, omega1, omega0, match",
    [
        ([[1.0, 0.0]], [1.0], [1.0], r"sigma must be square, got shape \(1, 2\)"),
        (np.eye(2), [1.0], [1.0, 0.0], "omega1 and omega0 must match sigma's dimension"),
        ([[2.0, 1.0], [0.0, 2.0]], [1.0, 0.0], [1.0, 0.0], "sigma must be symmetric"),
    ],
)
def test_moment_record_shape_rules(sigma, omega1, omega0, match):
    with pytest.raises(ValueError, match=match):
        ExactMoments(sigma, omega1, omega0, mu1=1.0, mu0=0.0, q1=3.0, q0=2.0)


@pytest.mark.parametrize(
    "sigma, l0, l1, error, match",
    [
        ([[1.0, 0.9], [0.0, 1.0]], [1.0, 0.0], [1.0, 0.0], ValueError, "sigma must be symmetric"),
        ([[1.0, 0.0]], [1.0], [1.0], ValueError, r"sigma must be square, got shape \(1, 2\)"),
        ([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], [0.0, 0.0], SingularDesignError,
         "sigma must be positive definite"),
        (np.eye(2), [1.0], [1.0, 0.0], ValueError, "l0 and l1 must match sigma's dimension"),
        ([[1.0]], [1.0], [1.0, 2.0], ValueError, "l0 and l1 must match sigma's dimension"),
    ],
    ids=["asymmetric", "not-square", "not-positive-definite", "short-l0", "long-l1"],
)
def test_sampler_checks_its_population(sigma, l0, l1, error, match):
    """A sampler is checked when it is built, as its moment record is: an
    asymmetric sigma would otherwise draw from its lower triangle, and a
    slope of the wrong length fail only inside a draw, or at p = 1 be read
    at its first entry."""
    with pytest.raises(error, match=match):
        GaussianArmSampler(sigma=sigma, b0=0.0, b1=1.0, l0=l0, l1=l1, s0=1.0, s1=1.0)


@pytest.mark.parametrize(
    "q1, q0, arm",
    [(0.0, 2.0, 1), (3.0, 0.5, 0), (2.0 * (1.0 - 1e-8), 2.0, 1)],
    ids=["q1-zero", "q0-below-mu0-sq-plus-omega0-term", "q1-just-below"],
)
def test_impossible_second_moments_are_refused(q1, q0, arm):
    """q_a must be at least mu_a^2 + omega_a' sigma^-1 omega_a: here mu1 = 1,
    omega1 = (1, 0), omega0 = (1, 0) under sigma = I, so q1 >= 2 and q0 >= 1.
    A record below it had every variance printed as 0 by the clamp in
    _residual_second_moment. A NaN q1 is refused as not finite
    (``test_non_finite_moment_record_names_the_field``)."""
    with pytest.raises(ValueError, match=rf"q{arm} = .* is not at least mu{arm}\^2"):
        ExactMoments(np.eye(2), [1.0, 0.0], [1.0, 0.0], mu1=1.0, mu0=0.0, q1=q1, q0=q0)


FINITE_RECORD = {"sigma": np.eye(2), "omega1": [1.0, 0.0], "omega0": [1.0, 0.0],
                 "mu1": 1.0, "mu0": 0.0, "q1": 3.0, "q0": 2.0}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", list(FINITE_RECORD))
def test_non_finite_moment_record_names_the_field(field, bad):
    """A non-finite field is refused by name, before sigma's symmetry test and
    the second-moment bound: an infinite sigma gave NaN variances, a NaN sigma
    was called asymmetric, and a NaN omega1 or mu1 was blamed on q1."""
    record = dict(FINITE_RECORD)
    value = np.array(record[field], dtype=float)
    value.flat[-1] = bad
    record[field] = value if value.ndim else float(value)
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        ExactMoments(**record)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["sigma", "l0", "l1", "b0", "b1", "s0", "s1"])
def test_sampler_refuses_a_non_finite_field(field, bad):
    """A sampler with s0 = inf was accepted and drew infinite outcomes."""
    args = {"sigma": np.eye(2), "l0": [1.0, 0.0], "l1": [0.5, 0.5],
            "b0": 0.0, "b1": 1.0, "s0": 1.0, "s1": 1.0}
    value = np.array(args[field], dtype=float)
    value.flat[0] = bad
    args[field] = value if value.ndim else float(value)
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        GaussianArmSampler(**args)


def test_symmetry_rule_is_allclose():
    """sigma's symmetry test is np.allclose(sigma, sigma.T) written out: the
    same records pass and fail on either side of its tolerance."""
    rng = np.random.default_rng(8)
    verdicts = set()
    for scale in np.logspace(-10, -2, 33):
        for _ in range(5):
            base = rng.uniform(0.1, 10.0)
            sigma = np.array([[base, 0.0], [rng.uniform(-1.0, 1.0) * base * scale, base]])
            symmetric = bool(np.allclose(sigma, sigma.T))
            verdicts.add(symmetric)
            try:
                ExactMoments(sigma, [0.0, 0.0], [0.0, 0.0], mu1=0.0, mu0=0.0, q1=1.0, q0=1.0)
            except ValueError as exc:
                assert (str(exc), symmetric) == ("sigma must be symmetric", False)
            else:
                assert symmetric
    assert verdicts == {True, False}


def _block_reference(spec, pop):
    """solve_population's gamma and delta by its documented block system, assembled
    with np.ix_ and np.block: the reference the in-place assembly must equal."""
    pi, mom = pop.pi, pop.moments
    sigma = mom.sigma
    omega_bar = pi * mom.omega1 + (1.0 - pi) * mom.omega0
    gamma = np.array([0.0 if c.is_free else c.value for c in spec.gamma])
    delta = np.array([0.0 if c.is_free else c.value for c in spec.delta])
    f_idx, g_idx = list(spec.unrestricted_gamma()), list(spec.unrestricted_delta())
    if f_idx or g_idx:
        k11 = sigma[np.ix_(f_idx, f_idx)]
        k12 = pi * sigma[np.ix_(f_idx, g_idx)]
        k22 = pi * sigma[np.ix_(g_idx, g_idx)]
        k = np.block([[k11, k12], [k12.T, k22]])
        r = omega_bar[f_idx] - sigma[f_idx] @ gamma - pi * (sigma[f_idx] @ delta)
        s = pi * (mom.omega1[g_idx] - sigma[g_idx] @ gamma - sigma[g_idx] @ delta)
        sol = np.linalg.solve(k, np.concatenate([r, s]))
        gamma[f_idx] = sol[: len(f_idx)]
        delta[g_idx] = sol[len(f_idx) :]
    return gamma, delta


def test_solve_population_equals_the_block_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    for k in range(60):
        p = 1 + k % 3
        pop = random_moment_population(rng, p)
        names = [f"X{j + 1}" for j in range(p)]
        specs = [named_spec(name, p) for name in NAMED_SPECS] + [
            parse_formula(f"1 + A + X1@0.5 + A:X{p}", names),
            parse_formula(f"1 + A + X{p} + A:X1@-0.25", names),
        ]
        for spec in specs:
            sol = solve_population(spec, pop)
            gamma, delta = _block_reference(spec, pop)
            assert sol.gamma.tobytes() == gamma.tobytes()
            assert sol.delta.tobytes() == delta.tobytes()


def test_second_moment_bound_allows_rounding():
    """The equality case, an outcome linear in X, passes up to MOMENT_RTOL."""
    sigma = np.array([[2.0, 0.6], [0.6, 0.5]])
    omega = sigma @ [0.7, -1.3]
    bound = 1.5**2 + omega @ np.linalg.solve(sigma, omega)
    for q in (bound, bound * (1.0 - 1e-12)):
        ExactMoments(sigma, omega, omega, mu1=1.5, mu0=1.5, q1=q, q0=q)


def test_non_positive_definite_sigma_rejected():
    with pytest.raises(SingularDesignError):
        ExactMoments(
            sigma=np.array([[1.0, 2.0], [2.0, 1.0]]),
            omega1=np.zeros(2),
            omega0=np.zeros(2),
            mu1=0.0,
            mu0=0.0,
            q1=1.0,
            q0=1.0,
        )


def test_underflowing_population_normal_equations_are_singular():
    """sigma = [[5e-324]] is positive definite, but pi·sigma underflows to 0,
    so a model with a free interaction has singular normal equations."""
    moments = ExactMoments(np.array([[5e-324]]), [0.0], [0.0], mu1=1.0, mu0=0.0, q1=3.0, q0=2.0)
    pop = PopulationSpec(pi=0.3, moments=moments)
    assert solve_population(ANOVA1, pop).beta == 1.0
    with pytest.raises(SingularDesignError, match="population normal equations are singular"):
        solve_population(ANHECOVA1, pop)


def test_population_needs_a_source():
    with pytest.raises(ValueError):
        PopulationSpec(pi=0.5)
