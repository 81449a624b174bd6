"""A long-double oracle for the fit kernel's least squares and sandwich.

The kernel (``linadjust.estimate._solve``, ``_ate_var`` and ``_vcov``)
works in double precision. ``oracle`` recomputes what it computes in long
double (a 64-bit significand on x86-64: ε is 1.1e-19 against double's
2.2e-16) from the same double inputs: the Gram matrix ZᵀWZ, its inverse
(the bread B) by Gauss-Jordan elimination, the normal-equation
coefficients refined twice against the residual, and the HC0 covariance
U·Uᵀ of the influence rows U = B·Z·diag(wε̂), whose [1, 1] entry is the
ATE variance. At the condition numbers of the kernel's Gram route
(κ = s_max/s_min of W^½Z below 10³) the oracle's own error is at most
about κ²·1.1e-19 = 1e-13 (the bread), four orders below the budgets it
checks, and ``budget`` turns ``estimate.GRAM_BUDGET`` into per-sample
bounds.

Designs are column-major, (R, q, n), as the kernel's are.

It also keeps a reference for the dominance checker: its predicates as
they were first written, position by position with ``CoefConstraint.contains``
over the constraint tuples, before ``ModelSpec`` derived the index tuples and
fixed values that ``linadjust.dominance`` now reads. ``check_known_mean``,
``check_centered``, ``table1`` and ``corollaries`` here return what the
checker's functions of those names return, and raise what they raise.

This module is not collected by pytest; the kernel and dominance tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linadjust.dominance import _TABLE1_ROWS, DominanceVerdict
from linadjust.estimate import GRAM_BUDGET
from linadjust.model import ModelSpec, _check_pi, _default_names, named_spec, parse_formula

LD = np.longdouble
EPS = np.finfo(float).eps
HAS_LONG_DOUBLE = np.finfo(LD).eps < EPS


def gauss_jordan_inverse(g):
    """Inverses of the positive definite matrices g (R, q, q), in g's precision."""
    q = g.shape[-1]
    aug = np.concatenate([g, np.broadcast_to(np.eye(q, dtype=g.dtype), g.shape)], axis=2)
    for k in range(q):
        aug[:, k] /= aug[:, k, k, None]
        for i in range(q):
            if i != k:
                aug[:, i] -= aug[:, i, k, None] * aug[:, k]
    return aug[:, :, q:]


def influence(z, resid, bread, w=None):
    """The influence rows U = B·Z·diag(wε̂) (R, q, n) in long double, of the
    designs z (R, q, n), residuals (R, n) and breads (R, q, q), weighted by w (R, n)."""
    score = np.asarray(resid, dtype=LD) * (1.0 if w is None else np.asarray(w, dtype=LD))
    return (np.asarray(bread, dtype=LD) @ np.asarray(z, dtype=LD)) * score[:, None, :]


def poisson_mle(z, offset, y, steps: int = 40):
    """The Poisson MLE of y (R, n) on the column-major designs z (R, q, n) with
    the offsets (R, n), by ``steps`` Newton steps in long double from each
    arm's log rate, and the HC0 variance of its treatment coefficient at its
    own means: the bread ((Z·μ)Zᵀ)⁻¹ and the residual y - μ. Returns
    (coef (R, q), ate_var (R,)), long double."""
    zl, yl, ol = (np.asarray(v, dtype=LD) for v in (z, y, offset))
    arms = np.stack([1 - zl[:, 1], zl[:, 1]], axis=1)
    rate = np.log((arms @ yl[..., None]) / (arms @ np.exp(ol)[..., None]))[..., 0]
    coef = np.zeros(zl.shape[:2], dtype=LD)
    coef[:, 0], coef[:, 1] = rate[:, 0], rate[:, 1] - rate[:, 0]
    for _ in range(steps):
        mu = np.exp((coef[:, None, :] @ zl)[:, 0] + ol)
        bread = gauss_jordan_inverse((zl * mu[:, None, :]) @ zl.swapaxes(1, 2))
        coef += (bread @ (zl @ (yl - mu)[..., None]))[..., 0]
    mu = np.exp((coef[:, None, :] @ zl)[:, 0] + ol)
    bread = gauss_jordan_inverse((zl * mu[:, None, :]) @ zl.swapaxes(1, 2))
    u = influence(zl, yl - mu, bread)[:, 1]
    return coef, (u * u).sum(axis=1)


def largest(a):
    """The largest magnitude of each sample's entries (leading axis), as double."""
    a = np.abs(np.asarray(a, dtype=LD))
    return np.asarray(a.max(axis=tuple(range(1, a.ndim))), dtype=float)


def rel(got, want):
    """Per sample, the largest error over the largest magnitude of ``want``."""
    return largest(np.asarray(got, dtype=LD) - np.asarray(want, dtype=LD)) / largest(want)


def _coef_budget(kappa, eta):
    return GRAM_BUDGET["coef"] * kappa * (1.0 + kappa * eta) * EPS


def _bread_budget(kappa):
    return GRAM_BUDGET["bread"] * kappa**2 * EPS


@dataclass
class Oracle:
    """Long-double least squares of y on z weighted by w, per sample.

    ``coef`` (R, q), ``bread`` (ZᵀWZ)⁻¹ and ``vcov`` U·Uᵀ (R, q, q) and
    ``resid`` (R, n) are long double. ``kappa`` is s_max/s_min of W^½Z and
    ``eta`` the relative residual ‖W^½r‖/(s_max‖β‖), each (R,) double;
    ``change`` (R, q, q) is U·Uᵀ's first-order change that ``GRAM_BUDGET``
    names, and ``resid_change`` (R, n) the residuals' error that enters it.
    """

    coef: np.ndarray
    bread: np.ndarray
    resid: np.ndarray
    vcov: np.ndarray
    kappa: np.ndarray
    eta: np.ndarray
    change: np.ndarray
    resid_change: np.ndarray

    @property
    def ate_var(self) -> np.ndarray:
        """The ATE variance, U·Uᵀ's [1, 1] entry (R,)."""
        return self.vcov[:, 1, 1]

    def budget(self, quantity: str) -> np.ndarray:
        """Each sample's error budget for ``quantity``: "coef" (ate_hat too,
        relative to the largest coefficient), "bread", "resid", "vcov" or
        "ate_var" (relative to itself)."""
        if quantity == "coef":
            return _coef_budget(self.kappa, self.eta)
        if quantity == "bread":
            return _bread_budget(self.kappa)
        if quantity == "resid":
            return largest(self.resid_change) / largest(self.resid)
        if quantity == "ate_var":
            return GRAM_BUDGET["vcov"] * self.change[:, 1, 1] / np.asarray(self.ate_var, dtype=float)
        return GRAM_BUDGET["vcov"] * largest(self.change) / largest(self.vcov)


def oracle(z, y, w=None) -> Oracle:
    """The long-double solve of the designs z (R, q, n) and responses y (R, n)."""
    zl, yl = np.asarray(z, dtype=LD), np.asarray(y, dtype=LD)
    zw = zl if w is None else zl * np.asarray(w, dtype=LD)[:, None, :]
    bread = gauss_jordan_inverse(zw @ zl.swapaxes(1, 2))
    coef = (bread @ (zw @ yl[..., None]))[..., 0]
    for _ in range(2):
        resid = yl - (coef[:, None, :] @ zl)[:, 0]
        coef += (bread @ (zw @ resid[..., None]))[..., 0]
    resid = yl - (coef[:, None, :] @ zl)[:, 0]
    u = influence(zl, resid, bread, w)
    wd = np.ones(np.shape(y)) if w is None else np.asarray(w, dtype=float)
    s = np.linalg.svd(np.asarray(z) * np.sqrt(wd)[:, None, :], compute_uv=False)
    kappa = s[:, 0] / s[:, -1]
    r, beta = np.asarray(resid, dtype=float), np.asarray(coef, dtype=float)
    # a sample whose covariance is out of double's range gets an inf or NaN statistic
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.linalg.norm(r * np.sqrt(wd), axis=1) / (s[:, 0] * np.linalg.norm(beta, axis=1))
        za = np.abs(z)
        e = np.abs(y) + za.sum(axis=1) * np.abs(beta).max(axis=1)[:, None]
        e *= (EPS + _coef_budget(kappa, eta))[:, None]
        # each u_ki moves by the bread's budget along zᵢ and by the residual's error eᵢ
        db = (_bread_budget(kappa) * largest(bread))[:, None, None]
        bz = np.abs(np.asarray(bread, dtype=float) @ z)
        du = db * (wd * za.sum(axis=1) * np.abs(r))[:, None, :] + bz * (wd * e)[:, None, :]
        dv = (2.0 * np.abs(np.asarray(u, dtype=float)) + du) @ du.swapaxes(1, 2)
        return Oracle(coef, bread, resid, u @ u.swapaxes(1, 2), kappa, eta,
                      0.5 * (dv + dv.swapaxes(1, 2)), e)


def constraints_nested(outer, inner) -> bool:
    """Componentwise set containment of constraint tuples."""
    return all(o.contains(i) for o, i in zip(outer, inner))


def _subconditions(spec1: ModelSpec, spec2: ModelSpec) -> dict[str, bool]:
    return {
        "gamma_nested": constraints_nested(spec1.gamma, spec2.gamma),
        "delta_nested": constraints_nested(spec1.delta, spec2.delta),
    }


def _known_mean_terms(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> dict[str, bool]:
    free_gamma = {j for j, c in enumerate(spec1.gamma) if c.is_free}
    free_delta = {j for j, c in enumerate(spec1.delta) if c.is_free}
    return {**_subconditions(spec1, spec2), "pi_half": pi == 0.5,
            "interaction_superset": free_delta >= free_gamma}


def _centered_terms(spec1: ModelSpec, spec2: ModelSpec) -> dict[str, bool]:
    free_gamma = {j for j, c in enumerate(spec1.gamma) if c.is_free}
    free_delta = {j for j, c in enumerate(spec1.delta) if c.is_free}
    return {**_subconditions(spec1, spec2), "equal_free_sets": free_gamma == free_delta}


def _validate_pair(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> None:
    if spec1.p != spec2.p:
        msg = f"specs have different covariate counts: {spec1.p} vs {spec2.p}"
        raise ValueError(msg)
    if (spec1.gamma, spec1.delta) == (spec2.gamma, spec2.delta):
        msg = "specs are identical; dominance comparison needs distinct models"
        raise ValueError(msg)
    _check_pi(pi)


def check_known_mean(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> DominanceVerdict:
    _validate_pair(spec1, spec2, pi)
    t = _known_mean_terms(spec1, spec2, pi)
    if not (t["gamma_nested"] and t["delta_nested"] and (t["pi_half"] or t["interaction_superset"])):
        return DominanceVerdict("NotGuaranteed", "none", "known-mean", t)
    if t["interaction_superset"]:
        return DominanceVerdict("Dominates", "Theorem1-interaction-superset", "known-mean", t)
    return DominanceVerdict("Dominates", "Theorem1-pi-half", "known-mean", t)


def check_centered(spec1: ModelSpec, spec2: ModelSpec, pi: float) -> DominanceVerdict:
    _validate_pair(spec1, spec2, pi)
    t = _centered_terms(spec1, spec2)
    gamma_equal = spec1.gamma == spec2.gamma
    pi_half = pi == 0.5
    if all(t.values()):
        t["gamma_equal"] = gamma_equal
        t["pi_half"] = pi_half
        if gamma_equal and pi_half:
            return DominanceVerdict("EqualVariance", "Remark1", "empirical", t)
        return DominanceVerdict("Dominates", "Theorem2", "empirical", t)
    if pi_half and gamma_equal and all(_centered_terms(spec2, spec1).values()):
        t.update(gamma_equal=True, pi_half=True, reversed_pair_nested=True)
        return DominanceVerdict("EqualVariance", "Remark1", "empirical", t)
    return DominanceVerdict("NotGuaranteed", "none", "empirical", t)


def table1(p: int, pi: float) -> list[dict]:
    if p < 1:
        msg = f"p must be positive, got {p}"
        raise ValueError(msg)
    names = _default_names(p)
    rows = []
    for f1, f2 in _TABLE1_ROWS:
        s1, s2 = parse_formula(f1, names), parse_formula(f2, names)
        known, cent = check_known_mean(s1, s2, pi), check_centered(s1, s2, pi)
        rows.append({"model1": f1, "model2": f2,
                     "known_mean": known.verdict, "known_mean_clause": known.theorem,
                     "empirical": cent.verdict, "empirical_clause": cent.theorem})
    return rows


def corollaries(pi: float, p: int = 2) -> list[dict]:
    out = []
    for name1, name2 in (("ANHECOVA", "ANOVA"), ("ANHECOVA", "ANCOVA"), ("LDV", "DiD")):
        v = check_centered(named_spec(name1, p), named_spec(name2, p), pi)
        out.append({"model1": name1, "model2": name2, "verdict": v.verdict, "clause": v.theorem,
                    "certified": v.verdict in ("Dominates", "EqualVariance")})
    return out
