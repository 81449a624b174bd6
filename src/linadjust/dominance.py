"""Sufficient-condition checks for asymptotic variance dominance.

A verdict of NotGuaranteed means the implemented sufficient conditions
did not certify the ordering, not that dominance is false.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelSpec, _check_pi, _default_names, named_spec, parse_formula

__all__ = [
    "DominanceVerdict",
    "check_known_mean",
    "check_centered",
    "constraints_nested",
    "condition_known_mean",
    "condition_centered",
    "table1",
    "corollaries",
]


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of a dominance check on an ordered pair of specs.

    ``theorem`` names the clause that certified the verdict:
    "Theorem1-pi-half", "Theorem1-interaction-superset", "Theorem2",
    "Remark1", or "none". ``explanation`` records which subconditions
    held.
    """

    verdict: str  # "Dominates" | "NotGuaranteed" | "EqualVariance"
    theorem: str
    centering: str  # "known-mean" | "empirical"
    explanation: dict[str, bool]

    def __str__(self) -> str:
        return f"{self.verdict} ({self.theorem})"


def constraints_nested(outer, inner) -> bool:
    """Componentwise set containment of constraint tuples."""
    return all(o.contains(i) for o, i in zip(outer, inner))


def _subconditions(spec1: ModelSpec, spec2: ModelSpec) -> dict[str, bool]:
    return {
        "gamma_nested": constraints_nested(spec1.gamma, spec2.gamma),
        "delta_nested": constraints_nested(spec1.delta, spec2.delta),
    }


def _known_mean_terms(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> dict[str, bool]:
    superset = set(spec1.unrestricted_delta()) >= set(spec1.unrestricted_gamma())
    return {**_subconditions(spec1, spec2), "pi_half": pi == 0.5, "interaction_superset": superset}


def _centered_terms(spec1: ModelSpec, spec2: ModelSpec) -> dict[str, bool]:
    equal_free = set(spec1.unrestricted_gamma()) == set(spec1.unrestricted_delta())
    return {**_subconditions(spec1, spec2), "equal_free_sets": equal_free}


def _known_mean_holds(t: dict[str, bool]) -> bool:
    return t["gamma_nested"] and t["delta_nested"] and (t["pi_half"] or t["interaction_superset"])


def condition_known_mean(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> bool:
    """The known-mean dominance condition, allowing spec1 == spec2."""
    return _known_mean_holds(_known_mean_terms(spec1, spec2, pi))


def condition_centered(spec1: ModelSpec, spec2: ModelSpec) -> bool:
    """The centered dominance condition, allowing spec1 == spec2."""
    return all(_centered_terms(spec1, spec2).values())


def _validate_pair(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> None:
    if spec1.p != spec2.p:
        msg = f"specs have different covariate counts: {spec1.p} vs {spec2.p}"
        raise ValueError(msg)
    if (spec1.gamma, spec1.delta) == (spec2.gamma, spec2.delta):
        msg = "specs are identical; dominance comparison needs distinct models"
        raise ValueError(msg)
    _check_pi(pi)


def check_known_mean(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> DominanceVerdict:
    """Does spec1 uniformly dominate spec2 when the covariate mean is known?

    Certifies dominance when spec2's constraint sets are contained in
    spec1's and either pi is one half or spec1's free interactions
    cover its free main effects.
    """
    _validate_pair(spec1, spec2, pi)
    expl = _known_mean_terms(spec1, spec2, pi)
    if not _known_mean_holds(expl):
        return DominanceVerdict("NotGuaranteed", "none", "known-mean", expl)
    if expl["interaction_superset"]:
        return DominanceVerdict("Dominates", "Theorem1-interaction-superset", "known-mean", expl)
    return DominanceVerdict("Dominates", "Theorem1-pi-half", "known-mean", expl)


def check_centered(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> DominanceVerdict:
    """Does spec1 uniformly dominate spec2 under empirical centering?

    Certifies dominance when the constraint sets are nested and spec1
    frees the same covariates in main effects and interactions. When
    additionally the main-effect constraints coincide and pi is one
    half, the two asymptotic variances are equal.
    """
    _validate_pair(spec1, spec2, pi)
    expl = _centered_terms(spec1, spec2)
    gamma_equal = spec1.gamma == spec2.gamma
    pi_half = pi == 0.5
    if all(expl.values()):
        expl["gamma_equal"] = gamma_equal
        expl["pi_half"] = pi_half
        if gamma_equal and pi_half:
            return DominanceVerdict("EqualVariance", "Remark1", "empirical", expl)
        return DominanceVerdict("Dominates", "Theorem2", "empirical", expl)
    # equality is symmetric: if the reversed pair meets the dominance
    # condition with identical main-effect constraints at pi = 1/2, the
    # closed-form gap is zero in both directions
    if pi_half and gamma_equal and condition_centered(spec2, spec1):
        expl.update(gamma_equal=True, pi_half=True, reversed_pair_nested=True)
        return DominanceVerdict("EqualVariance", "Remark1", "empirical", expl)
    return DominanceVerdict("NotGuaranteed", "none", "empirical", expl)


_TABLE1_ROWS = (
    ("1 + A + X + A:X", "1 + A"),
    ("1 + A + X + A:X", "1 + A + X"),
    ("1 + A + X + A:X", "1 + A + A:X"),
    ("1 + A + X", "1 + A"),
    ("1 + A + A:X", "1 + A"),
)


def table1(p: int, pi: float) -> list[dict]:
    """Verdicts for the five basic model comparisons, both centerings.

    Returns one record per row with the two formulas and the verdicts
    under known-mean and empirical centering.
    """
    if p < 1:
        msg = f"p must be positive, got {p}"
        raise ValueError(msg)
    names = _default_names(p)
    rows = []
    for f1, f2 in _TABLE1_ROWS:
        s1 = parse_formula(f1, names)
        s2 = parse_formula(f2, names)
        known = check_known_mean(s1, s2, pi)
        cent = check_centered(s1, s2, pi)
        rows.append({"model1": f1, "model2": f2,
                     "known_mean": known.verdict, "known_mean_clause": known.theorem,
                     "empirical": cent.verdict, "empirical_clause": cent.theorem})
    return rows


def corollaries(pi: float, p: int = 2) -> list[dict]:
    """Named-estimator dominance claims and how this checker certifies them.

    ANHECOVA versus ANOVA and ANCOVA are certified directly. LDV versus
    DiD is a claim the implemented sufficient conditions cannot certify
    (LDV frees the baseline main effect but not its interaction, so its
    free sets differ); that row carries certified=False. Whether LDV wins
    depends on pi: the exact centered variances of 1,500 random
    two-covariate populations (``random_moment_population``, seed 0) put
    LDV behind DiD in none at pi = 0.5, in 390 at pi = 0.3 and in 400 at
    pi = 0.7. ``did_vs_ldv_experiment`` simulates pi = 0.5 only.
    """
    out = []
    for name1, name2 in (("ANHECOVA", "ANOVA"), ("ANHECOVA", "ANCOVA"), ("LDV", "DiD")):
        v = check_centered(named_spec(name1, p), named_spec(name2, p), pi)
        out.append({"model1": name1, "model2": name2, "verdict": v.verdict, "clause": v.theorem,
                    "certified": v.verdict in ("Dominates", "EqualVariance")})
    return out
