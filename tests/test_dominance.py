import itertools

import numpy as np
import oracle
import pytest

from linadjust import (
    FREE,
    CoefConstraint,
    GaussianArmSampler,
    ModelSpec,
    PopulationSpec,
    asymptotic_variance_centered,
    asymptotic_variance_known_mean,
    check_centered,
    check_known_mean,
    condition_centered,
    condition_known_mean,
    constraints_nested,
    corollaries,
    make_counterexample,
    named_spec,
    parse_formula,
    random_moment_population,
    table1,
)

ANOVA2 = named_spec("ANOVA", 2)
ANCOVA2 = named_spec("ANCOVA", 2)
ANHECOVA2 = named_spec("ANHECOVA", 2)


def test_table_pattern_unbalanced():
    rows = table1(2, 0.3)
    got = [(r["known_mean"], r["empirical"]) for r in rows]
    assert got == [
        ("Dominates", "Dominates"),
        ("Dominates", "Dominates"),
        ("Dominates", "Dominates"),
        ("NotGuaranteed", "NotGuaranteed"),
        ("Dominates", "NotGuaranteed"),
    ]
    assert rows[0]["known_mean_clause"] == "Theorem1-interaction-superset"
    assert rows[1]["empirical_clause"] == "Theorem2"
    assert rows[3]["empirical_clause"] == "none"


def test_table_pattern_balanced():
    rows = table1(2, 0.5)
    # freeing interactions on top of equal main effects costs nothing
    assert rows[1]["empirical"] == "EqualVariance"
    assert rows[1]["empirical_clause"] == "Remark1"
    # the main-effects-only model picks up the pi = 1/2 clause
    assert rows[3]["known_mean"] == "Dominates"
    assert rows[3]["known_mean_clause"] == "Theorem1-pi-half"
    # but stays uncertified under empirical centering
    assert rows[3]["empirical"] == "NotGuaranteed"


def test_table_pattern_does_not_depend_on_p():
    assert [(r["known_mean"], r["empirical"]) for r in table1(3, 0.3)] == [
        (r["known_mean"], r["empirical"]) for r in table1(1, 0.3)
    ]


def test_table_rejects_bad_p():
    with pytest.raises(ValueError):
        table1(0, 0.3)


def test_reversed_nesting_is_not_certified():
    v = check_known_mean(ANOVA2, ANHECOVA2, 0.3)
    assert v.verdict == "NotGuaranteed"
    assert not v.explanation["gamma_nested"]


def test_identical_specs_rejected():
    with pytest.raises(ValueError, match="identical"):
        check_centered(ANHECOVA2, ANHECOVA2, 0.5)


def test_mismatched_p_rejected():
    with pytest.raises(ValueError, match="covariate counts"):
        check_known_mean(ANHECOVA2, named_spec("ANOVA", 3), 0.3)


@pytest.mark.parametrize("pi", [0.0, 1.0, -0.2, 1.7])
def test_degenerate_pi_rejected(pi):
    with pytest.raises(ValueError, match="pi"):
        check_known_mean(ANHECOVA2, ANOVA2, pi)


def test_verdict_str_and_centering_tag():
    v = check_centered(ANHECOVA2, ANOVA2, 0.3)
    assert str(v) == "Dominates (Theorem2)"
    assert v.centering == "empirical"
    assert check_known_mean(ANHECOVA2, ANOVA2, 0.3).centering == "known-mean"


def test_explanation_keys():
    known = check_known_mean(ANCOVA2, ANOVA2, 0.3)
    assert set(known.explanation) == {
        "gamma_nested",
        "delta_nested",
        "pi_half",
        "interaction_superset",
    }
    cent = check_centered(ANHECOVA2, ANOVA2, 0.3)
    assert cent.explanation["equal_free_sets"]
    assert cent.explanation["gamma_equal"] is False


def test_remark_equality_is_symmetric():
    for a, b in [(ANCOVA2, ANHECOVA2), (ANHECOVA2, ANCOVA2)]:
        v = check_centered(a, b, 0.5)
        assert (v.verdict, v.theorem) == ("EqualVariance", "Remark1")
    assert check_centered(ANCOVA2, ANHECOVA2, 0.3).verdict == "NotGuaranteed"


def test_ldv_dominates_did_only_at_half_known_mean():
    ldv = named_spec("LDV", 2)
    did = named_spec("DiD", 2)
    assert check_known_mean(ldv, did, 0.5).theorem == "Theorem1-pi-half"
    assert check_known_mean(ldv, did, 0.4).verdict == "NotGuaranteed"
    assert check_centered(ldv, did, 0.5).verdict == "NotGuaranteed"


def test_corollary_records():
    rows = corollaries(0.3)
    assert [(r["model1"], r["model2"]) for r in rows] == [
        ("ANHECOVA", "ANOVA"),
        ("ANHECOVA", "ANCOVA"),
        ("LDV", "DiD"),
    ]
    assert [r["certified"] for r in rows] == [True, True, False]
    assert rows[2]["clause"] == "none"
    balanced = corollaries(0.5)
    assert balanced[1]["verdict"] == "EqualVariance"
    assert balanced[1]["certified"]


def test_ldv_can_lose_to_did_away_from_pi_half():
    """The uncertified LDV-versus-DiD row depends on pi: in this population
    (the first of ``random_moment_population``'s draws at seed 0, rounded),
    LDV's exact centered variance exceeds DiD's at pi = 0.3 but not at 0.5."""
    sampler = GaussianArmSampler(
        sigma=[[3.3, -0.232], [-0.232, 2.162]], b0=0.427, b1=0.918,
        l0=[0.174, 1.74], l1=[1.263, -1.989], s0=1.758, s1=0.357,
    )
    ldv, did = named_spec("LDV", 2), named_spec("DiD", 2)
    v = {
        pi: [asymptotic_variance_centered(s, PopulationSpec(pi=pi, sampler=sampler)) for s in (ldv, did)]
        for pi in (0.3, 0.5)
    }
    assert v[0.3] == pytest.approx([43.661, 40.765], abs=5e-4)
    assert v[0.5][0] < v[0.5][1]


def test_counterexamples_back_the_uncertified_rows():
    """Each NotGuaranteed in the table has a population where the claim
    actually fails, so the checker is not merely conservative there."""
    pop = make_counterexample("AncovaWorse", 0.3)
    sub = named_spec("ANCOVA", 1)
    base = named_spec("ANOVA", 1)
    assert check_known_mean(sub, base, 0.3).verdict == "NotGuaranteed"
    assert asymptotic_variance_known_mean(sub, pop) > asymptotic_variance_known_mean(
        base, pop
    )

    pop = make_counterexample("InteractionsOnlyWorseCentered", 0.75)
    io = parse_formula("1 + A + A:X1", ["X1"])
    assert check_centered(io, base, 0.75).verdict == "NotGuaranteed"
    assert asymptotic_variance_centered(io, pop) > asymptotic_variance_centered(base, pop)


def _random_nested_pair(rng, p):
    """spec2 restricts spec1: free slots may collapse to constants,
    fixed slots are copied, so constraint containment holds by build.

    Half the time delta reuses gamma's free pattern and gamma survives
    the restriction untouched, which steers pairs toward the
    equal-variance clause often enough to exercise it.
    """

    def one():
        return FREE if rng.random() < 0.6 else CoefConstraint(float(rng.normal()))

    g1 = tuple(one() for _ in range(p))
    mirror = rng.random() < 0.5
    d1 = tuple(
        (FREE if g is FREE else CoefConstraint(float(rng.normal()))) if mirror else one()
        for g in g1
    )

    def restrict(c):
        if c is FREE and rng.random() < 0.5:
            return CoefConstraint(float(rng.normal()))
        return c

    g2 = g1 if mirror else tuple(restrict(c) for c in g1)
    d2 = tuple(restrict(c) for c in d1)
    return ModelSpec(g1, d1), ModelSpec(g2, d2)


def test_certified_verdicts_are_sound():
    """Whenever the checker says Dominates or EqualVariance, the exact
    variance calculus agrees, across random populations and pairs."""
    rng = np.random.default_rng(314)
    checked = {"known": 0, "centered": 0, "equal": 0}
    rounds = 0
    while min(checked.values()) < 12:
        rounds += 1
        assert rounds < 20_000, f"pair generator starved a branch: {checked}"
        pop = random_moment_population(rng)
        if rng.random() < 0.3:
            pop = type(pop)(pi=0.5, moments=pop.moments, sampler=pop.sampler)
        spec1, spec2 = _random_nested_pair(rng, pop.p)
        if (spec1.gamma, spec1.delta) == (spec2.gamma, spec2.delta):
            continue
        tol = 1e-8

        if check_known_mean(spec1, spec2, pop.pi).verdict == "Dominates":
            v1 = asymptotic_variance_known_mean(spec1, pop)
            v2 = asymptotic_variance_known_mean(spec2, pop)
            assert v1 <= v2 + tol + 1e-9 * abs(v2)
            checked["known"] += 1

        cent = check_centered(spec1, spec2, pop.pi)
        if cent.verdict == "Dominates":
            v1 = asymptotic_variance_centered(spec1, pop)
            v2 = asymptotic_variance_centered(spec2, pop)
            assert v1 <= v2 + tol + 1e-9 * abs(v2)
            checked["centered"] += 1
        elif cent.verdict == "EqualVariance":
            v1 = asymptotic_variance_centered(spec1, pop)
            v2 = asymptotic_variance_centered(spec2, pop)
            assert v1 == pytest.approx(v2, abs=tol, rel=1e-9)
            checked["equal"] += 1


def test_equal_variance_on_named_pair_checks_numerically():
    rng = np.random.default_rng(99)
    for _ in range(10):
        pop = random_moment_population(rng, p=2)
        pop = type(pop)(pi=0.5, moments=pop.moments, sampler=pop.sampler)
        assert asymptotic_variance_centered(ANCOVA2, pop) == pytest.approx(
            asymptotic_variance_centered(ANHECOVA2, pop), abs=1e-8
        )


def test_condition_helpers_allow_equal_specs():
    # the raw predicates are reflexive even though check_* rejects
    # identical pairs up front
    assert condition_known_mean(ANHECOVA2, ANHECOVA2, 0.3)
    assert condition_centered(ANHECOVA2, ANHECOVA2)
    assert constraints_nested(ANHECOVA2.gamma, ANOVA2.gamma)
    assert not constraints_nested(ANOVA2.gamma, ANHECOVA2.gamma)


CHOICES = (FREE, CoefConstraint(0.0), CoefConstraint(0.5))


def _specs(p: int, choices=CHOICES) -> list[ModelSpec]:
    """Every spec at ``p`` covariates whose coefficients each take one of ``choices``."""
    return [ModelSpec(c[:p], c[p:]) for c in itertools.product(choices, repeat=2 * p)]


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, comparable with ``==``: its error's type and message,
    a verdict's fields with its explanation's items in order, or a list of records'
    items in order."""
    try:
        out = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(out, list):
        return [list(r.items()) for r in out]
    if isinstance(out, bool):
        return out
    return type(out), out.verdict, out.theorem, out.centering, list(out.explanation.items())


@pytest.mark.parametrize("pi", [0.3, 0.5, 1.0])
def test_verdicts_match_the_reference_on_every_pair(pi):
    """Both checks give the reference's verdict, clause, explanation (its keys in
    order) or error on every ordered pair of the 9 specs at p = 1 and 81 at p = 2
    whose coefficients are each free, fixed at 0 or fixed at 0.5; pi = 1 is invalid."""
    specs = _specs(1) + _specs(2)
    for s1, s2 in itertools.product(specs, repeat=2):
        for check, ref in ((check_known_mean, oracle.check_known_mean),
                           (check_centered, oracle.check_centered)):
            assert _outcome(check, s1, s2, pi) == _outcome(ref, s1, s2, pi), (check, s1, s2)


def test_verdicts_match_the_reference_on_signed_zeros():
    """A coefficient fixed at -0.0 is the one fixed at 0.0, in every predicate."""
    specs = _specs(1, (*CHOICES, CoefConstraint(-0.0)))
    for s1, s2 in itertools.product(specs, repeat=2):
        for pi in (0.3, 0.5):
            for check, ref in ((check_known_mean, oracle.check_known_mean),
                               (check_centered, oracle.check_centered)):
                assert _outcome(check, s1, s2, pi) == _outcome(ref, s1, s2, pi), (check, s1, s2)
        nested = constraints_nested(s1.delta, s2.delta)
        assert nested == oracle.constraints_nested(s1.delta, s2.delta)


def test_constraints_nested_matches_the_reference():
    """On every pair of constraint tuples of one or two entries, equal lengths or not."""
    sides = [c for p in (1, 2) for c in itertools.product(CHOICES, repeat=p)]
    for outer, inner in itertools.product(sides, repeat=2):
        assert constraints_nested(outer, inner) == oracle.constraints_nested(outer, inner)


@pytest.mark.parametrize("p", [1, 2, 3, 0, 2.0])
@pytest.mark.parametrize("pi", [0.3, 0.5, 0.0])
def test_tables_match_the_reference(p, pi):
    """``table1`` and ``corollaries`` give the reference's records, their keys in
    order, or its error; twice, so that a memoized call is checked too."""
    for _ in range(2):
        assert _outcome(table1, p, pi) == _outcome(oracle.table1, p, pi)
        assert _outcome(corollaries, pi, p) == _outcome(oracle.corollaries, pi, p)
