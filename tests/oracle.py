"""A long-double oracle for the fit kernel's least squares and sandwich.

The kernel (``linadjust.estimate._solve``, ``_ate_var``, ``_meat`` and
``_sandwich``) works in double precision. ``oracle`` recomputes what it
computes in long double (a 64-bit significand on x86-64: ε is 1.1e-19
against double's 2.2e-16) from the same double inputs: the Gram matrix
ZᵀWZ, its inverse (the bread) by Gauss-Jordan elimination, the
normal-equation coefficients refined twice against the residual, the
ATE variance Σ uᵢ² of the influence row uᵢ = (b₁ᵀzᵢ)·wᵢε̂ᵢ, the HC0 meat
Σ wᵢ²ε̂ᵢ²zᵢzᵢᵀ and the sandwich. At the condition numbers of the
kernel's Gram route (κ = s_max/s_min of W^½Z below 10³) the oracle's own
error is at most about κ²·1.1e-19 = 1e-13 (the bread), four orders below
the budgets it checks, and ``budget`` turns ``estimate.GRAM_BUDGET`` into
per-sample bounds.

Designs are column-major, (R, q, n), as the kernel's are. This module is
not collected by pytest; the kernel tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linadjust.estimate import GRAM_BUDGET

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


def meat(z, resid, w=None):
    """The HC0 meat Σ wᵢ²ε̂ᵢ² zᵢzᵢᵀ (R, q, q) in long double, of the designs
    z (R, q, n) and residuals (R, n) weighted by w (R, n)."""
    score = np.asarray(resid, dtype=LD) * (1.0 if w is None else np.asarray(w, dtype=LD))
    score = np.asarray(z, dtype=LD) * score[:, None, :]
    return score @ score.swapaxes(1, 2)


def ate_var(z, resid, bread, w=None):
    """The ATE variance Σ uᵢ² (R,), uᵢ = (b₁ᵀzᵢ)·wᵢε̂ᵢ with b₁ the bread's row 1,
    in long double, of the designs z (R, q, n) and residuals (R, n); NaN at
    q = 1, where there is no row 1."""
    zl, bl = np.asarray(z, dtype=LD), np.asarray(bread, dtype=LD)
    if zl.shape[1] < 2:
        return np.full(len(zl), np.nan, dtype=LD)
    u = (bl[:, 1:2] @ zl)[:, 0] * np.asarray(resid, dtype=LD)
    if w is not None:
        u *= np.asarray(w, dtype=LD)
    return (u * u).sum(axis=1)


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

    ``coef`` (R, q), ``bread`` (ZᵀWZ)⁻¹ and ``meat``, ``vcov`` (R, q, q),
    ``resid`` (R, n) and ``ate_var`` (R,) are long double. ``kappa`` is
    s_max/s_min of W^½Z, ``eta`` the relative residual ‖W^½r‖/(s_max‖β‖)
    and ``alpha`` the sandwich's amplification ‖B‖²‖M‖/‖BMB‖ (largest
    magnitudes), each (R,) double; ``meat_change`` and ``ate_change`` are
    the first-order relative changes ``GRAM_BUDGET`` names.
    """

    coef: np.ndarray
    bread: np.ndarray
    resid: np.ndarray
    meat: np.ndarray
    vcov: np.ndarray
    ate_var: np.ndarray
    kappa: np.ndarray
    eta: np.ndarray
    meat_change: np.ndarray
    ate_change: np.ndarray
    alpha: np.ndarray

    def budget(self, quantity: str) -> np.ndarray:
        """Each sample's error budget for ``quantity``: "coef" (ate_hat too,
        relative to the largest coefficient), "bread", "meat", "vcov" or
        "ate_var"."""
        if quantity == "coef":
            return _coef_budget(self.kappa, self.eta)
        if quantity == "bread":
            return _bread_budget(self.kappa)
        if quantity == "meat":
            return GRAM_BUDGET["meat"] * self.meat_change
        if quantity == "ate_var":
            return GRAM_BUDGET["ate_var"] * self.ate_change
        return self.alpha * (2.0 * self.budget("bread") + self.budget("meat"))


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
    m = meat(zl, resid, w)
    vcov = bread @ m @ bread
    v = ate_var(zl, resid, bread, w)
    sw = np.ones(np.shape(y)) if w is None else np.sqrt(w)
    s = np.linalg.svd(np.asarray(z) * sw[:, None, :], compute_uv=False)
    kappa = s[:, 0] / s[:, -1]
    r, beta = np.asarray(resid, dtype=float), np.asarray(coef, dtype=float)
    # a sample whose meat or covariance is out of double's range gets an inf or NaN statistic
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.linalg.norm(r * sw, axis=1) / (s[:, 0] * np.linalg.norm(beta, axis=1))
        za = np.abs(z)
        e = np.abs(y) + za.sum(axis=1) * np.abs(beta).max(axis=1)[:, None]
        e *= (EPS + _coef_budget(kappa, eta))[:, None]
        wd = 1.0 if w is None else np.asarray(w, dtype=float)
        dm = (za * (wd**2 * (2.0 * np.abs(r) + e) * e)[:, None, :]) @ za.swapaxes(1, 2)
        # each uᵢ moves by the bread's budget along zᵢ and by the residual's error eᵢ
        b1z = (np.asarray(bread[:, 1:2], dtype=float) @ z)[:, 0] if z.shape[1] > 1 else np.nan
        db = (_bread_budget(kappa) * largest(bread))[:, None]
        du = wd * (db * za.sum(axis=1) * np.abs(r) + np.abs(b1z) * e)
        dv = ((2.0 * np.abs(b1z * wd * r) + du) * du).sum(axis=1)
        alpha = largest(bread) ** 2 * largest(m) / largest(vcov)
        return Oracle(coef, bread, resid, m, vcov, v, kappa, eta, largest(dm) / largest(m),
                      dv / np.asarray(v, dtype=float), alpha)
