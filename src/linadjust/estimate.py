"""Constrained least squares, sandwich variances, and the Poisson GLM.

Every fit reduces to unconstrained least squares on the free design
columns after the fixed-coefficient offset is moved to the response
(linear models) or into the linear predictor (Poisson). One stacked
kernel serves them all: ``_Stack`` holds R samples of equal shape and
``_fit`` fits one spec to every sample at once. The kernel holds every
stacked design column-major, as one (R, q, n) block (sample, column,
row; ``model._design``), so each per-row product (the weighting Z·w, the
fitted values, the influence rows) runs along contiguous rows of length
n. The Gram ZᵀWZ = (Z·w) @ Zᵀ and a lone fit's U·Uᵀ are products that
numpy hands to BLAS gemm, never a block times its own transpose, which it
hands to the slower syrk (``_self_product``); the weights enter the Gram
route once, as Z·w, and W^½Z is formed only for the samples the SVD
takes. ``_fit`` assembles every fit: the design, the solve (``_irls``
for Poisson), the residual, the variances, the centering penalty and the
failed rows. ``_solve`` is the (weighted) least-squares solve used by OLS,
WLS, the Poisson start and routed Newton steps and the full-model refit
for the centering penalty:
from the Gram matrix ZᵀWZ when κ = s_max/s_min < 10³ (GRAM_RTOL), within
the per-quantity budget GRAM_BUDGET states, and otherwise by the batched
SVD of ``_svd_solve``, which holds the one rank rule. Every
variance is a sum over the influence rows U = B·Z·diag(wε̂) of
``_influence``: ``_ate_var`` sums the squares of the ATE row alone, which
is every fit's ate_se, and ``_vcov`` forms U·Uᵀ, the HC0/HC1 covariance,
only for a lone fit's ``vcov`` and ``sandwich_vcov``; ``_penalized`` adds
the empirical-centering penalty and clamps.
Weighted fits use each sample's weights times an even power of two
(``_Stack.scaled_w``), which changes no result but keeps ZᵀWZ and the
influence rows in range. A sample that cannot be fitted is NaN in the
stack and keeps the error a fit of it alone raises. ``sim.run_grid`` fits
a stack per chunk; ``fit_*`` and ``sandwich_vcov`` fit a stack of one
(``_Stack.one``).
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Centering, ColumnMap, Dataset, Empirical, KnownMean, ModelSpec, format_formula
from .model import _center, _check_covariates, _design, named_spec

__all__ = [
    "EstimationError",
    "SingularDesignError",
    "FitResult",
    "fit_ols",
    "fit_weighted",
    "fit_poisson_glm",
    "sandwich_vcov",
    "estimate_ate_variance_centered",
]

SVD_RTOL = 1e-10
# The Gram route's error budget: the constant c per quantity, for its error relative to
# the largest entry of the exact value (a long-double oracle in the tests), with ε the
# double epsilon, κ = s_max/s_min of W^½Z and η = ‖W^½r‖/(s_max‖β‖):
#   coef   c·κ(1 + κη)·ε: coefficients and ate_hat; the least-squares condition
#          (Higham, Accuracy and Stability of Numerical Algorithms, §20.1), as the SVD's
#   bread  c·κ²·ε: (ZᵀWZ)⁻¹ from the normal equations squares κ (Higham §20.4)
#   vcov   c times the first-order change of U·Uᵀ = Σᵢ uᵢuᵢᵀ, uᵢ = B·zᵢ·wᵢrᵢ
#          (``_influence``), when B's rows move by the bread's budget and each rᵢ by
#          (|yᵢ| + ‖zᵢ‖₁·max|β|)·(ε + the coef budget); the ATE variance, its [1, 1]
#          entry, within that entry's change
# Seen: at most 0.61, 0.50 and 0.15 of these (the tests' random stacks; 1,790 fits of
# scenarios 3 and 4, seven specs, n = 150 and 1,000, seeds 0-3: 0.21, 0.21, 0.097).
GRAM_BUDGET = {"coef": 1.0, "bread": 8.0, "vcov": 1.0}
# λ_min/λ_max of ZᵀWZ above which _solve takes the Gram route, κ < 10³, as every sample of
# scenarios 1-4 is (κ <= 315 at n = 1000). Its variances then carry the bread's 8κ²ε: scenario
# 4's U·Uᵀ (n = 150, seeds 0-5) was 2.3e-10 off the oracle, 4.1e-12 by the SVD, 10⁸ below 1/√n
GRAM_RTOL = 1e-6
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 100
_DIVERGED = "Poisson fit diverged (separation or unbounded coefficients)"
_CLAMPED = "centered-variance {} clamped at zero"


class EstimationError(Exception):
    """A fit could not be computed; ``cause`` names why in a few words."""

    def __init__(self, msg: str, cause: str = "estimation error") -> None:
        super().__init__(msg)
        self.cause = cause


class SingularDesignError(EstimationError):
    """The free-column Gram matrix is singular to working tolerance.

    ``columns`` names the design columns on the weak directions; ``refit`` is
    true when the failed fit is the full model refitted for the empirical
    centering correction, whose columns need not be the model's own.
    """

    def __init__(self, msg: str, columns: tuple[str, ...] = (), refit: bool = False) -> None:
        super().__init__(msg, "singular design")
        self.columns = columns
        self.refit = refit


@dataclass
class FitResult:
    """Fitted coefficients, ATE estimate, and sandwich covariance.

    ``gamma`` and ``delta`` have length p with fixed entries echoed at
    their constraint values. ``vcov`` covers the free coefficients in
    design-column order (see ``labels``): the HC0 (or HC1) sandwich U·Uᵀ
    of the influence rows U = (ZᵀWZ)⁻¹·Z·diag(wε̂). ``condition_number``
    is s_max/s_min of the (square-root-weighted) free design in the final
    solve, and ``iterations`` the number of Newton evaluations after the
    start of a Poisson fit (``_irls``; 1 for a linear fit).
    """

    alpha: float
    beta: float
    gamma: np.ndarray
    delta: np.ndarray
    ate_hat: float
    ate_se: float
    vcov: np.ndarray
    n_used: int
    spec: ModelSpec
    column_map: ColumnMap
    converged: bool = True
    se_clamped: bool = False
    free_coefs: np.ndarray = field(default=None, repr=False)
    condition_number: float = float("nan")
    iterations: int = 1

    @property
    def labels(self) -> tuple[str, ...]:
        return self.column_map.labels

    def to_dict(self, cov_names: list[str] | None = None) -> dict:
        """JSON-ready record; the spec names covariates ``cov_names`` (default X1..Xp)."""
        centering = (
            "empirical"
            if isinstance(self.spec.centering, Empirical)
            else f"known-mean {list(self.spec.centering.mu)}"
        )
        return {
            "spec": format_formula(self.spec, cov_names or None),
            "centering": centering,
            "theta_hat": {
                "alpha": self.alpha,
                "beta": self.beta,
                "gamma": [float(g) for g in self.gamma],
                "delta": [float(d) for d in self.delta],
            },
            "ate_hat": self.ate_hat,
            "ate_se": self.ate_se,
            "n_used": self.n_used,
            "converged": self.converged,
            "se_clamped": self.se_clamped,
            "condition_number": self.condition_number,
            "iterations": self.iterations,
        }


class _Stack:
    """R samples of n rows and p covariates each, stacked on a leading axis.

    ``a`` and ``y`` are (R, n), ``x`` is (R, n, p) and ``w`` (R, n) or
    None (``one`` stacks a lone dataset); the designs built from them are
    column-major, (R, q, n). What every spec fitted to the stack shares is
    computed once: the covariates under each centering, the empty-arm
    errors, whether the outcomes are counts, and for the centering penalty
    the full model's interaction estimate.
    """

    def __init__(self, a: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> None:
        self.a, self.x, self.y, self.w = a, x, y, w
        self._centered: dict[bytes | None, np.ndarray] = {}

    @classmethod
    def one(cls, data: Dataset) -> _Stack:
        """A dataset as a stack of one, of views, so a lone large fit copies nothing."""
        w = None if data.weights is None else data.weights[None]
        return cls(data.a[None], data.x[None], data.y[None], w)

    @property
    def n(self) -> int:
        return self.y.shape[1]

    def centered(self, centering: Centering) -> np.ndarray:
        """The covariates centered at the known mean or each sample's mean, (R, n, p)."""
        key = np.asarray(centering.mu).tobytes() if isinstance(centering, KnownMean) else None
        if key not in self._centered:
            self._centered[key] = _center(centering, self.x)
        return self._centered[key]

    @cached_property
    def scaled_w(self) -> np.ndarray | None:
        """The weights the fits use: each sample's times the even power of two 4⁻ᵏ
        that puts their maximum in [0.5, 2).

        The scaling is exact and leaves every estimate and standard error
        as it is (the bread scales by 4ᵏ and wε̂ by 4⁻ᵏ, so the influence
        rows B·Z·wε̂ not at all), but ZᵀWZ cannot overflow, nor can B·Z or
        wε̂ leave the range of doubles through the weights' overall scale.
        """
        if self.w is None:
            return None
        _, e = np.frexp(self.w.max(axis=1))
        return np.ldexp(self.w, -2 * (e // 2)[:, None])

    @cached_property
    def empty_arms(self) -> dict[int, EstimationError]:
        """Keyed by row, the error of each sample with an empty treatment arm."""
        n1 = self.a.sum(axis=1)
        return {
            int(r): EstimationError(
                f"both treatment arms must be nonempty (treated count {int(n1[r])} of {self.n})",
                "empty arm",
            )
            for r in np.flatnonzero((n1 == 0) | (n1 == self.n))
        }

    @cached_property
    def counts(self) -> bool:
        """Whether every outcome is exactly a nonnegative integer, as a Poisson fit needs."""
        return bool(((self.y >= 0.0) & (self.y == np.round(self.y))).all())

    def sigma(self, rows=slice(None)) -> np.ndarray:
        """Sample covariance (ddof 0) of the covariates of the samples ``rows``, (R', p, p).

        Only the samples that need it are multiplied: a failed sample's
        covariates may overflow the product. At p >= 2 the second operand
        is a copy, so numpy calls gemm, not syrk (see ``_self_product``); at
        p = 1 the product is a dot either way.
        """
        xc = self.centered(Empirical())[rows]
        return (xc.swapaxes(-1, -2) @ (xc if xc.shape[2] == 1 else xc.copy())) * (1.0 / self.n)

    @cached_property
    def full_delta(self) -> tuple[np.ndarray, dict[int, EstimationError]]:
        """Interaction estimates (R, p) of the empirically centered full model, and
        its errors, each saying that it is the centering correction's refit."""
        p = self.x.shape[2]
        z, _, cmap = _design(named_spec("ANHECOVA", p), self.a, self.centered(Empirical()))
        coef, _, _, errors = _solve(z, self.y, cmap.labels, self.scaled_w)
        return coef[:, -p:], {r: _singular(e.columns, refit=True) for r, e in errors.items()}


@dataclass
class _Fits:
    """One spec fitted to every sample of a stack; a failed sample's row is NaN
    and ``errors`` holds what a fit of that sample alone raises. ``vcov`` is
    None unless the fit was asked for it (``_fit``'s ``vcov``)."""

    spec: ModelSpec
    cmap: ColumnMap
    coef: np.ndarray
    vcov: np.ndarray | None
    ate_se: np.ndarray
    condition: np.ndarray
    errors: dict[int, EstimationError]
    clamped: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    @property
    def ate_hat(self) -> np.ndarray:
        return self.coef[:, 1]

    def result(self, r: int, n: int) -> FitResult:
        spec, cmap, coef = self.spec, self.cmap, self.coef[r]
        one = self.coef[r : r + 1]
        return FitResult(
            alpha=float(coef[0]),
            beta=float(coef[1]),
            gamma=_with_fixed(spec.gamma, cmap.gamma_cols, one)[0],
            delta=_with_fixed(spec.delta, cmap.delta_cols, one)[0],
            ate_hat=float(coef[1]),
            ate_se=float(self.ate_se[r]),
            vcov=self.vcov[r],
            n_used=n,
            spec=spec,
            column_map=cmap,
            converged=bool(self.converged[r]),
            se_clamped=bool(self.clamped[r]),
            free_coefs=coef,
            condition_number=float(self.condition[r]),
            iterations=int(self.iterations[r]),
        )


def _solve(z, y, labels: tuple[str, ...], w=None):
    """Least squares of y (R, n) on the column-major designs z (R, q, n), per
    sample, weighted by w when given.

    Returns the coefficients (R, q), the breads (ZᵀWZ)⁻¹ (R, q, q), the
    singular values (R, q) of W^½Z and, keyed by row, a
    SingularDesignError for each sample that fails the rank rule of
    ``_svd_solve``. Those rows are NaN.

    One batched eigendecomposition of the Gram matrices G = ZᵀWZ routes
    each sample. A sample whose G is finite and has eigenvalues
    λ_min > GRAM_RTOL·λ_max (κ < 10³) is solved from G by ``_gram_solve``,
    within the budget GRAM_BUDGET states. Every other sample (κ ≳ 10³, a
    G that overflows, a singular design) is gathered into a sub-stack and
    solved by ``_svd_solve`` alone, which applies the rank rule; nothing
    of the Gram route is formed for it, and W^½Z is formed for it alone.
    A sample's route and numbers depend on its own data only.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zw = z if w is None else z * w[:, None, :]
        gram = _self_product(z) if w is None else zw @ z.swapaxes(-1, -2)
    finite = np.isfinite(gram).all(axis=(1, 2))
    if not finite.all():
        gram[~finite] = np.eye(z.shape[1])  # eigh does not converge on inf or NaN
    lam, v = np.linalg.eigh(gram)
    good = finite & (lam[:, 0] > GRAM_RTOL * lam[:, -1])
    if good.all():
        return (*_gram_solve(zw, z, y, lam, v), {})
    if not good.any():
        del zw  # before the SVD route forms W^½Z
        return _svd_solve(z, y, labels, w)
    r, q = z.shape[:2]
    coef, bread, s = np.empty((r, q)), np.empty((r, q, q)), np.empty((r, q))
    rows = np.flatnonzero(good)
    coef[rows], bread[rows], s[rows] = _gram_solve(zw[rows], z[rows], y[rows], lam[rows], v[rows])
    del zw
    rows = np.flatnonzero(~good)
    wr = None if w is None else w[rows]
    coef[rows], bread[rows], s[rows], sub = _svd_solve(z[rows], y[rows], labels, wr)
    return coef, bread, s, {int(rows[k]): e for k, e in sub.items()}


def _self_product(a):
    """a @ aᵀ (R, q, q) of the column-major blocks a (R, q, n): rows 1..q-1,
    then row 0. numpy hands a block times its own transpose to BLAS syrk,
    2-5 times slower than gemm on the kernel's stacked blocks; operands that
    start at different rows of one buffer go to gemm, and unlike a copy of
    the block they do not raise a chunk's peak memory."""
    at = a.swapaxes(-1, -2)
    out = np.empty(a.shape[:-1] + a.shape[-2:-1])
    np.matmul(a[:, 1:], at, out=out[:, 1:])
    np.matmul(a[:, :1], at, out=out[:, :1])
    return out


def _gram_solve(zw, z, y, lam, v):
    """The normal-equation solve of y (R, n) on z (R, q, n), with zw = Z·w
    (z itself unweighted), from the eigendecomposition V·diag(λ)·Vᵀ of each
    Gram matrix: the bread V·diag(1/λ)·Vᵀ, the coefficients refined once
    against the residual y - Zβ, and the singular values √λ in descending
    order. No square root of the weights is taken."""
    bread = (v / lam[:, None, :]) @ v.swapaxes(-1, -2)
    coef = (bread @ (zw @ y[..., None]))[..., 0]
    resid = (coef[:, None, :] @ z)[:, 0]
    resid = np.subtract(y, resid, out=resid)
    coef += (bread @ (zw @ resid[..., None]))[..., 0]
    return coef, bread, np.sqrt(lam[:, ::-1])


def _svd_solve(z, y, labels: tuple[str, ...], w=None):
    """Least squares of y (R, n) on the column-major designs z (R, q, n),
    weighted by w when given, by batched SVDs of W^½Z.

    One batched call factors every sample; each sample's numbers are
    those of its SVD alone. The SVD factors the (n, q) view of each
    sample, which is Fortran-ordered, so LAPACK's copy of it is a plain
    one.
    Returns what ``_solve`` returns. A sample fails the one rank rule
    s < SVD_RTOL·s[0] with a SingularDesignError that names the columns
    loading on its weak directions; its row is NaN. This is ``_solve``'s
    route for the samples the Gram matrix cannot decide.
    """
    if w is not None:
        sw = np.sqrt(w)
        z, y = z * sw[:, None, :], y * sw
    u, s, vt = np.linalg.svd(z.swapaxes(-1, -2), full_matrices=False)
    uty = (y[:, None, :] @ u)[:, 0]
    tol = SVD_RTOL * s[:, 0]
    bad = (s[:, -1] < tol) | (s[:, 0] == 0.0)
    errors = {}
    for r in np.flatnonzero(bad):
        weak = np.flatnonzero(s[r] < tol[r])
        involved = [labels[j] for k in weak for j in np.flatnonzero(np.abs(vt[r, k]) > 0.1)]
        errors[int(r)] = _singular(tuple(dict.fromkeys(involved)) or labels)
    s = np.where(bad[:, None], np.nan, s)
    v = vt.swapaxes(-1, -2)
    coef = (v @ (uty / s)[..., None])[..., 0]
    return coef, (v / s[:, None, :] ** 2) @ vt, s, errors


def _singular(columns: tuple[str, ...], refit: bool = False) -> SingularDesignError:
    """The rank rule's error, naming the design columns on the weak directions
    and, for the centering correction's refit, saying that it failed."""
    where = " in the full model refitted for the centering correction" if refit else ""
    msg = f"singular design{where}; offending columns: {', '.join(columns)}"
    return SingularDesignError(msg, columns, refit)


def _influence(z, resid, bread, w=None, rows=slice(None)):
    """The influence rows U = B[rows]·Z·diag(wε̂) (R, k, n), per sample, of the
    column-major designs z (R, q, n), residuals (R, n) and breads B (R, q, q):
    column i of U is observation i's share of β̂ - β, so U·Uᵀ is the HC0
    covariance B·M·B without its meat M. A grid asks for the ATE row alone."""
    u = bread[:, rows] @ z
    u *= (resid if w is None else w * resid)[:, None, :]
    return u


def _ate_var(z, resid, bread, w=None, hc1=False):
    """The HC0 (or HC1) variance of ate_hat, per sample: Σᵢ uᵢ² of the ATE
    influence row uᵢ = (b₁ᵀzᵢ)·wᵢε̂ᵢ, with no other row formed. Its terms are
    non-negative, so its relative error is about nε (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4), where B·M·B would lose the
    sandwich's amplification ‖B‖²‖M‖/‖BMB‖."""
    u = _influence(z, resid, bread, w, slice(1, 2))[:, 0]
    var = np.square(u, out=u).sum(axis=1)
    return var * _hc1_factor(z) if hc1 else var


def _vcov(z, resid, bread, w=None, hc1=False):
    """The HC0 (or HC1) covariance U·Uᵀ (R, q, q) of all influence rows, per
    sample, by ``_self_product`` and symmetrised."""
    vcov = _self_product(_influence(z, resid, bread, w))
    if hc1:
        vcov *= _hc1_factor(z)
    return 0.5 * (vcov + vcov.swapaxes(-1, -2))


def _hc1_factor(z) -> float:
    """HC1's small-sample factor n/(n - q) for the designs z (R, q, n)."""
    q, n = z.shape[-2:]
    return n / max(n - q, 1)


def _with_fixed(constraints, cols: dict[int, int], coef: np.ndarray) -> np.ndarray:
    """Per-sample coefficient vectors (R, p): free entries from ``coef``, fixed ones echoed."""
    out = np.empty((len(coef), len(constraints)))
    for j, c in enumerate(constraints):
        out[:, j] = coef[:, cols[j]] if c.is_free else c.value
    return out


def _is_full(spec: ModelSpec) -> bool:
    return all(c.is_free for c in spec.gamma) and all(c.is_free for c in spec.delta)


def _centering_penalty(sigma, delta_s, delta_f):
    """The empirical-centering penalty delta_s' Sigma (2 delta_f - delta_s), per sample."""
    return (delta_s[..., None, :] @ sigma @ (2.0 * delta_f - delta_s)[..., :, None])[..., 0, 0]


def _penalized(var, sigma, delta_s, delta_f, scale):
    """var + centering penalty / scale, clamped at 0, and whether each was clamped."""
    total = var + _centering_penalty(sigma, delta_s, delta_f) / scale
    clamped = total < 0.0
    return np.where(clamped, 0.0, total), clamped


def _fit(
    spec: ModelSpec, st: _Stack, family: str = "gaussian", hc1: bool = False, *, vcov: bool = False
) -> _Fits:
    """Fit ``spec`` to every sample of the stack; ``family`` is "gaussian"
    (OLS, or WLS on a weighted stack) or "poisson" (``_irls``, unweighted).

    ``ate_se`` comes from each sample's ATE influence row (``_ate_var``),
    so a stacked fit and a fit alone give it the same bits. The other
    influence rows and the covariance U·Uᵀ are formed only with ``vcov``,
    which a lone fit's FitResult reports and ``run_grid`` does not read.
    """
    _check_covariates(spec, st.x.shape[2])
    poisson = family == "poisson"
    if poisson and not st.counts:
        msg = "Poisson outcomes must be nonnegative integers"
        raise ValueError(msg)
    z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
    if poisson:
        w = None
        coef, bread, s, errors, converged, iterations, resid = _irls(z, offset, st.y, cmap.labels)
    else:
        resid = st.y - offset
        del offset  # dead arrays are freed at once, to keep a chunk's peak memory down
        w = st.scaled_w
        coef, bread, s, errors = _solve(z, resid, cmap.labels, w)
        resid -= (coef[:, None, :] @ z)[:, 0]
        converged, iterations = np.ones(len(coef), dtype=bool), np.ones(len(coef), dtype=int)
    var = _ate_var(z, resid, bread, w, hc1)
    cov = _vcov(z, resid, bread, w, hc1) if vcov else None
    del z, resid  # so the full-model refit below does not raise peak memory
    ate_se = np.sqrt(var)
    clamped = np.zeros(len(var), dtype=bool)
    interacts = cmap.delta_cols or any(c.value for c in spec.delta)  # else every δ_s is 0
    if not poisson and isinstance(spec.centering, Empirical) and interacts:
        delta = _with_fixed(spec.delta, cmap.delta_cols, coef)
        need = np.any(delta != 0.0, axis=1)  # δ_s = 0 has no penalty
        need[list(errors)] = False  # a failed sample's NaN delta needs no penalty
        if need.any():
            rows = slice(None) if need.all() else np.flatnonzero(need)
            delta_f, full_errors = (delta, {}) if _is_full(spec) else st.full_delta
            total, over = _penalized(var[rows], st.sigma(rows), delta[rows], delta_f[rows], st.n)
            clamped[rows] = over
            ate_se[rows] = np.sqrt(total)
            errors.update((r, e) for r, e in full_errors.items() if need[r])
    # an empty arm is also a singular design, but it is reported as what it is
    errors.update(st.empty_arms)
    if errors:
        failed = list(errors)
        coef[failed] = np.nan
        ate_se[failed] = np.nan
        clamped[failed] = False
    return _Fits(spec, cmap, coef, cov, ate_se, s[:, 0] / s[:, -1], errors, clamped, converged,
                 iterations)


def _irls(z, offset, y, labels: tuple[str, ...]):
    """Poisson maximum likelihood of y (R, n) on the column-major designs z
    (R, q, n) with the offsets (R, n): Newton's method on the score
    Z(y - μ), μ = exp(Zᵀβ + offset), each sample with its own steps
    (McCullagh and Nelder, Generalized Linear Models, 1989, §2.5).

    - Start: when the free columns are 1 and A, the MLE itself, each arm's
      log rate log(S_a/E_a), with S_a the arm's count total and E_a its
      total of exp(offset). Otherwise the least-squares fit of
      log(y + 0.5) - offset, which applies the rank rule.
    - Cheap steps: while a sample's last step is at or above √IRLS_TOL,
      its next evaluation forms the Gram (Z·μ)Zᵀ and takes the step from
      one batched linear solve, with no eigh, bread or refinement. A sample
      whose Gram is singular or whose step is not finite is routed instead.
    - Routed step: otherwise, and at the IRLS_MAX_ITER-th evaluation,
      ``_solve`` of (y - μ)/μ weighted by μ at the current β gives the
      step, the bread and the singular values at β's own weights, and
      applies the rank rule.

    A sample converges when a routed step is below IRLS_TOL, and is reported
    at β with that bread and the residual y - μ(β). Newton's method converges
    quadratically, so the MLE is β plus that step plus a term of the order
    of its square: the coefficients' error is at most about the step,
    below IRLS_TOL. A sample still unconverged at the IRLS_MAX_ITER-th
    evaluation is reported the same way at its last β. A sample diverges
    alone, its row NaN, when its linear predictor leaves |eta| <= 700, when
    its weights collapse (the rank rule fails at μ though z has full rank:
    a fitted mean went to 0), or when an arm's counts sum to 0 (a log rate
    of -inf). Returns the coefficients, breads, singular values and errors
    as ``_solve`` does, then whether each sample converged, its number of
    evaluations after the start, and its residuals y - μ (R, n).
    """
    r, q = z.shape[:2]
    a = z[:, 1, None, :]
    s1, total = (a @ y[..., None])[:, 0, 0], y.sum(axis=1)
    if q == 2:  # the free columns 1 and A
        e = np.exp(offset)
        e1 = (a @ e[..., None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            rate0, rate1 = np.log((total - s1) / (e.sum(axis=1) - e1)), np.log(s1 / e1)
        coef, errors, step = np.stack([rate0, rate1 - rate0], axis=1), {}, np.zeros(r)
    else:
        coef, _, _, errors = _solve(z, np.log(y + 0.5) - offset, labels)
        step = np.full(r, np.inf)
    for k in np.flatnonzero((s1 == 0.0) | (s1 == total)):  # an arm without counts: no MLE
        errors.setdefault(int(k), EstimationError(_DIVERGED, "Poisson divergence"))
    zy = None  # Zy (R, q, 1), once a sample takes a cheap step
    converged, iterations = np.zeros(r, dtype=bool), np.zeros(r, dtype=int)
    bread, s, resid = np.full((r, q, q), np.nan), np.full((r, q), np.nan), None
    active = np.ones(r, dtype=bool)
    active[list(errors)] = False
    for it in range(1, IRLS_MAX_ITER + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        iterations[idx] = it
        last = it == IRLS_MAX_ITER
        near = np.ones(idx.size, dtype=bool) if last else step[idx] < IRLS_TOL**0.5
        routed, cheap = idx[near], idx[~near]
        out = np.zeros(r, dtype=bool)
        if cheap.size:
            zy = z @ y[..., None] if zy is None else zy
            rows = slice(None) if cheap.size == r else cheap  # no gather while all take it
            new, out[rows] = _newton(z[rows], offset[rows], zy[rows], coef[rows])
            ok = ~out[cheap] & np.isfinite(new).all(axis=1)
            if not ok.all():
                routed = np.union1d(routed, cheap[~ok & ~out[cheap]])
                rows, new = cheap[ok], new[ok]
            coef[rows] += new
            step[rows] = np.abs(new).max(axis=1)
        if routed.size:
            rows = slice(None) if routed.size == r else routed
            zi = z[rows]
            mu, out[rows] = _poisson_mean(zi, offset[rows], coef[rows])
            work = y[rows] - mu
            work /= mu
            new, bread[rows], s[rows], collapsed = _solve(zi, work, labels, mu)
            del zi, work
            if resid is None:  # formed after the first routed solve, which is a chunk's peak memory
                resid = np.full(y.shape, np.nan)
            resid[rows] = y[rows] - mu
            out[routed[list(collapsed)]] = True
            step[rows] = np.abs(new).max(axis=1)
            converged[rows] = ~out[routed] & (step[rows] < IRLS_TOL)
            # at the last evaluation every sample stays at the β of its bread
            move = ~(out[routed] | converged[routed] | last)
            coef[routed[move]] += new[move]
        if out.any():
            for k in np.flatnonzero(out):
                errors[int(k)] = EstimationError(_DIVERGED, "Poisson divergence")
            active &= ~out
        active &= ~converged

    coef[list(errors)] = np.nan
    if resid is None:  # every sample failed before a routed step
        resid = np.full(y.shape, np.nan)
    return coef, bread, s, errors, converged, iterations, resid


def _poisson_mean(z, offset, coef):
    """The means μ = exp(Zᵀβ + offset) (R, n) at the coefficients (R, q), and
    whether each sample's linear predictor leaves |eta| <= 700 (NaN and ±inf
    fail the comparison too); such a sample's μ is 1."""
    eta = (coef[:, None, :] @ z)[:, 0]
    eta += offset
    out = ~(np.maximum(eta.max(axis=1), -eta.min(axis=1)) <= 700.0)
    if out.any():
        eta[out] = 0.0
    return np.exp(eta, out=eta), out


def _newton(z, offset, zy, coef):
    """Newton steps (R, q) of the Poisson score at the coefficients (R, q) from
    the Gram (Z·μ)Zᵀ by one batched solve, with no eigh, bread or refinement.
    zy (R, q, 1) is Zy, so the score Z(y - μ) is zy less the Gram's first
    column, Zμ, since the first design column is the intercept. When a Gram
    is singular, each sample is solved alone and a singular one's step is
    NaN, so that a sample's step depends on its own data only. Also returns
    ``_poisson_mean``'s flags."""
    mu, out = _poisson_mean(z, offset, coef)
    gram = (z * mu[:, None, :]) @ z.swapaxes(-1, -2)
    score = zy - gram[:, :, :1]
    try:
        return np.linalg.solve(gram, score)[..., 0], out
    except np.linalg.LinAlgError:
        step = np.full(coef.shape, np.nan)
        for k in range(len(gram)):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[k] = np.linalg.solve(gram[k], score[k])[:, 0]
        return step, out


def _fit_one(spec: ModelSpec, data: Dataset, family: str, hc1: bool) -> FitResult:
    """Fit a stack of one; raise its error, or warn at the public function's caller on a clamp.
    The FitResult reports the whole covariance U·Uᵀ, which only lone fits and
    ``sandwich_vcov`` form."""
    fits = _fit(spec, _Stack.one(data), family, hc1, vcov=True)
    if fits.errors:
        raise fits.errors[0]
    if fits.clamped[0]:
        warnings.warn(_CLAMPED.format("correction"), RuntimeWarning, stacklevel=3)
    return fits.result(0, data.n)


def fit_ols(spec: ModelSpec, data: Dataset, hc1: bool = False) -> FitResult:
    """Constrained ordinary least squares.

    Minimizes the residual sum of squares of
    y - alpha - beta*A - gamma'Xc - A*delta'Xc over the free
    coefficients, with Xc the centered covariates. ``ate_hat`` is the
    fitted treatment coefficient, which under empirical centering is
    the shift-invariant estimate beta_hat + delta_hat' X_bar.

    Parameters
    ----------
    spec : ModelSpec
    data : Dataset
        Must be unweighted; use :func:`fit_weighted` otherwise.
    hc1 : bool
        Apply the n/(n-q) small-sample factor to the sandwich. The
        default (HC0) is the contract; HC1 is for comparison only.

    Raises
    ------
    SingularDesignError
        If the free-column Gram matrix is rank deficient.
    EstimationError
        If either treatment arm is empty.
    """
    if data.weights is not None:
        msg = "dataset has weights; use fit_weighted"
        raise ValueError(msg)
    return _fit_one(spec, data, "gaussian", hc1)


def fit_weighted(spec: ModelSpec, data: Dataset, hc1: bool = False) -> FitResult:
    """Weighted constrained least squares with a weighted sandwich.

    Minimizes sum_i w_i * residual_i^2; the covariance uses the
    W-weighted bread (Z'WZ) and meat (sum w_i^2 e_i^2 z_i z_i'). The
    empirical-centering se penalty uses the weighted full-model fit
    with the unweighted covariate covariance as the plug-in for Sigma.
    """
    if data.weights is None:
        msg = "fit_weighted requires a dataset with weights"
        raise ValueError(msg)
    return _fit_one(spec, data, "gaussian", hc1)


def sandwich_vcov(spec: ModelSpec, data: Dataset, theta_hat) -> np.ndarray:
    """Recompute the HC0 sandwich covariance at a given coefficient vector.

    ``theta_hat`` may be a FitResult or the free-coefficient vector in
    design-column order. Returns the q x q covariance of the free
    coefficients, already scaled for the estimates themselves (the
    asymptotic matrix divided by n): at a fit's own coefficients, its ``vcov``.
    A dataset the fits cannot fit (an empty arm, a singular design) raises their error.
    """
    _check_covariates(spec, data.p)
    st = _Stack.one(data)
    z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
    coef = theta_hat.free_coefs if isinstance(theta_hat, FitResult) else np.asarray(theta_hat)
    if coef.shape != (z.shape[1],):
        msg = f"expected {z.shape[1]} free coefficients, got shape {coef.shape}"
        raise ValueError(msg)
    yadj = st.y - offset
    _, bread, _, errors = _solve(z, yadj, cmap.labels, st.scaled_w)
    errors.update(st.empty_arms)  # reported as the fits report it
    if errors:
        raise errors[0]
    return _vcov(z, yadj - (coef[None, None, :] @ z)[:, 0], bread, st.scaled_w)[0]


def estimate_ate_variance_centered(
    spec: ModelSpec, data: Dataset, fit_full: FitResult, fit_sub: FitResult
) -> float:
    """Plug-in estimate of n * var(ate_hat) under empirical centering.

    Adds the interaction penalty delta_s' Sigma_hat (2 delta_f - delta_s)
    to n times the sandwich beta-variance of the sub-model fit, where
    delta_f comes from the full-model fit. Negative totals are clamped
    at zero with a warning.
    """
    if not _is_full(fit_full.spec):
        msg = "fit_full must be the all-free (ANHECOVA) fit on the same data"
        raise ValueError(msg)
    if fit_sub.spec.p != spec.p or fit_full.spec.p != spec.p:
        msg = "dimension mismatch between spec and fits"
        raise ValueError(msg)
    _check_covariates(spec, data.p)
    var = data.n * fit_sub.vcov[1, 1]
    total, clamped = _penalized(var, _Stack.one(data).sigma()[0], fit_sub.delta, fit_full.delta, 1)
    if clamped:
        warnings.warn(_CLAMPED.format("estimate"), RuntimeWarning, stacklevel=2)
    return float(total)


def fit_poisson_glm(spec: ModelSpec, data: Dataset) -> FitResult:
    """Poisson log-link GLM over the free coefficients, by Newton's method (IRLS).

    Fixed coefficients enter the linear predictor as an offset. The start
    is the closed-form MLE when only the intercept and treatment are free,
    and otherwise the least-squares fit of log(y + 0.5). A fit converges
    when a Newton step at the final weights is below IRLS_TOL (1e-10) in
    every coefficient within IRLS_MAX_ITER (100) evaluations; its
    coefficients are then within about that step of the MLE, and its
    sandwich uses the bread and residuals at its own coefficients. A fit
    that runs out of evaluations is returned with ``converged=False``.
    ``ate_hat`` is the raw treatment coefficient, which deliberately does
    not estimate the ATE.
    """
    if data.weights is not None:
        msg = "weighted Poisson fits are not supported"
        raise ValueError(msg)
    return _fit_one(spec, data, "poisson", False)
