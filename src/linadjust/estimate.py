"""Constrained least squares, sandwich variances, and the Poisson GLM.

Every fit reduces to unconstrained least squares on the free design
columns after the fixed-coefficient offset is moved to the response
(linear models) or into the linear predictor (Poisson).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import ColumnMap, Dataset, Empirical, KnownMean, ModelSpec, build_design, named_spec

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
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 100
_DIVERGED = "Poisson fit diverged (separation or unbounded coefficients)"


class EstimationError(Exception):
    """A fit could not be computed."""


class SingularDesignError(EstimationError):
    """The free-column Gram matrix is singular to working tolerance."""

    def __init__(self, msg: str, columns: tuple[str, ...] = ()) -> None:
        super().__init__(msg)
        self.columns = columns


@dataclass
class FitResult:
    """Fitted coefficients, ATE estimate, and sandwich covariance.

    ``gamma`` and ``delta`` have length p with fixed entries echoed at
    their constraint values. ``vcov`` covers the free coefficients in
    design-column order (see ``labels``).
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

    @property
    def labels(self) -> tuple[str, ...]:
        return self.column_map.labels

    def to_dict(self) -> dict:
        from .model import format_formula

        names = [f"X{j + 1}" for j in range(self.spec.p)]
        centering = (
            "empirical"
            if isinstance(self.spec.centering, Empirical)
            else f"known-mean {list(self.spec.centering.mu)}"
        )
        return {
            "spec": format_formula(self.spec, names),
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
        }


def _svd_solve(z: np.ndarray, y: np.ndarray, labels: tuple[str, ...]):
    """Least-squares solve with an explicit singularity check.

    Returns the coefficient vector and the pseudo-inverse factorization
    pieces needed for the sandwich bread.
    """
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    if s[0] == 0.0 or s[-1] < SVD_RTOL * s[0]:
        bad = np.flatnonzero(s < SVD_RTOL * max(s[0], 1.0))
        involved: list[str] = []
        for k in bad:
            load = np.abs(vt[k])
            involved.extend(labels[j] for j in np.flatnonzero(load > 0.1))
        cols = tuple(dict.fromkeys(involved)) or labels
        msg = f"singular design; offending columns: {', '.join(cols)}"
        raise SingularDesignError(msg, cols)
    coef = vt.T @ ((u.T @ y) / s)
    gram_inv = (vt.T / s**2) @ vt
    return coef, gram_inv


def _hc_vcov(z, resid, gram_inv, sqrt_w=None, hc1=False):
    """Sandwich covariance (ZᵀWZ)⁻¹ · Σ wᵢ²ε̂ᵢ² zᵢzᵢᵀ · (ZᵀWZ)⁻¹."""
    score = z * resid[:, None]
    if sqrt_w is not None:
        score *= sqrt_w[:, None]
    meat = score.T @ score
    vcov = gram_inv @ meat @ gram_inv
    if hc1:
        n, q = z.shape
        vcov *= n / max(n - q, 1)
    return 0.5 * (vcov + vcov.T)


def _check_arms(data: Dataset) -> None:
    n1 = int(data.a.sum())
    if n1 == 0 or n1 == data.n:
        msg = f"both treatment arms must be nonempty (treated count {n1} of {data.n})"
        raise EstimationError(msg)


def _assemble(spec, data, coef, vcov, cmap, converged=True) -> FitResult:
    gamma = np.array(
        [coef[cmap.gamma_cols[j]] if c.is_free else c.value for j, c in enumerate(spec.gamma)]
    )
    delta = np.array(
        [coef[cmap.delta_cols[j]] if c.is_free else c.value for j, c in enumerate(spec.delta)]
    )
    return FitResult(
        alpha=float(coef[0]),
        beta=float(coef[1]),
        gamma=gamma,
        delta=delta,
        ate_hat=float(coef[1]),
        ate_se=float(np.sqrt(max(vcov[1, 1], 0.0))),
        vcov=vcov,
        n_used=data.n,
        spec=spec,
        column_map=cmap,
        converged=converged,
        free_coefs=coef,
    )


def _solve_linear(z: np.ndarray, yadj: np.ndarray, labels: tuple[str, ...], weights):
    """(Weighted) least squares; also returns the sandwich's design and root weights."""
    if weights is None:
        coef, gram_inv = _svd_solve(z, yadj, labels)
        return coef, gram_inv, z, None
    sw = np.sqrt(weights)
    zw = z * sw[:, None]
    coef, gram_inv = _svd_solve(zw, yadj * sw, labels)
    return coef, gram_inv, zw, sw


def _fit_linear_core(spec: ModelSpec, data: Dataset, weights, hc1=False) -> FitResult:
    _check_arms(data)
    z, offset, cmap = build_design(spec, data)
    yadj = data.y - offset
    coef, gram_inv, zw, sw = _solve_linear(z, yadj, cmap.labels, weights)
    vcov = _hc_vcov(zw, yadj - z @ coef, gram_inv, sqrt_w=sw, hc1=hc1)
    return _assemble(spec, data, coef, vcov, cmap)


def _is_full(spec: ModelSpec) -> bool:
    return all(c.is_free for c in spec.gamma) and all(c.is_free for c in spec.delta)


def _centering_penalty(sigma: np.ndarray, delta_s: np.ndarray, delta_f: np.ndarray) -> float:
    """The empirical-centering penalty delta_s' Sigma (2 delta_f - delta_s)."""
    return float(delta_s @ sigma @ (2.0 * delta_f - delta_s))


def _sample_penalty(data: Dataset, delta_s: np.ndarray, delta_f: np.ndarray) -> float:
    """The centering penalty with the sample covariance of X as Sigma."""
    sigma_hat = np.cov(data.x, rowvar=False, ddof=0).reshape(data.p, data.p)
    return _centering_penalty(sigma_hat, delta_s, delta_f)


def _apply_centered_se(fit: FitResult, data: Dataset, weights) -> None:
    """Fold the empirical-centering variance penalty into ate_se in place."""
    if not isinstance(fit.spec.centering, Empirical):
        return
    if not np.any(fit.delta):
        return
    if _is_full(fit.spec):
        delta_f = fit.delta
    else:
        full = named_spec("ANHECOVA", fit.spec.p).with_centering(fit.spec.centering)
        delta_f = _fit_linear_core(full, data, weights).delta
    total = fit.vcov[1, 1] + _sample_penalty(data, fit.delta, delta_f) / data.n
    if total < 0.0:
        warnings.warn(
            "centered-variance correction clamped at zero",
            RuntimeWarning,
            stacklevel=3,
        )
        fit.se_clamped = True
        total = 0.0
    fit.ate_se = float(np.sqrt(total))


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
    fit = _fit_linear_core(spec, data, None, hc1=hc1)
    _apply_centered_se(fit, data, None)
    return fit


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
    fit = _fit_linear_core(spec, data, data.weights, hc1=hc1)
    _apply_centered_se(fit, data, data.weights)
    return fit


def sandwich_vcov(spec: ModelSpec, data: Dataset, theta_hat, hc1: bool = False) -> np.ndarray:
    """Recompute the HC0 sandwich covariance at a given coefficient vector.

    ``theta_hat`` may be a FitResult or the free-coefficient vector in
    design-column order. Returns the q x q covariance of the free
    coefficients, already scaled for the estimates themselves (the
    asymptotic matrix divided by n).
    """
    z, offset, cmap = build_design(spec, data)
    coef = theta_hat.free_coefs if isinstance(theta_hat, FitResult) else np.asarray(theta_hat)
    if coef.shape != (z.shape[1],):
        msg = f"expected {z.shape[1]} free coefficients, got shape {coef.shape}"
        raise ValueError(msg)
    yadj = data.y - offset
    _, gram_inv, zw, sw = _solve_linear(z, yadj, cmap.labels, data.weights)
    return _hc_vcov(zw, yadj - z @ coef, gram_inv, sqrt_w=sw, hc1=hc1)


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
    correction = _sample_penalty(data, fit_sub.delta, fit_full.delta)
    total = data.n * fit_sub.vcov[1, 1] + correction
    if total < 0.0:
        warnings.warn("centered-variance estimate clamped at zero", RuntimeWarning, stacklevel=2)
        return 0.0
    return float(total)


def fit_poisson_glm(spec: ModelSpec, data: Dataset) -> FitResult:
    """Poisson log-link GLM over the free coefficients, via IRLS.

    Fixed coefficients enter the linear predictor as an offset. The
    working response is initialized at log(y + 0.5). Convergence is
    max absolute coefficient change below 1e-10 within 100 iterations;
    a fit that runs out of iterations is returned with
    ``converged=False``. ``ate_hat`` is the raw treatment coefficient,
    which deliberately does not estimate the ATE.
    """
    if data.weights is not None:
        msg = "weighted Poisson fits are not supported"
        raise ValueError(msg)
    y = data.y
    if (y < 0).any() or not np.allclose(y, np.round(y)):
        msg = "Poisson outcomes must be nonnegative integers"
        raise ValueError(msg)
    _check_arms(data)
    z, offset, cmap = build_design(spec, data)

    coef, _ = _svd_solve(z, np.log(y + 0.5) - offset, cmap.labels)
    converged = False
    for _ in range(IRLS_MAX_ITER):
        eta = z @ coef + offset
        if not np.isfinite(eta).all() or np.abs(eta).max() > 700.0:
            raise EstimationError(_DIVERGED)
        mu = np.exp(eta)
        work = (eta - offset) + (y - mu) / mu
        sw = np.sqrt(mu)
        try:
            new_coef, gram_inv = _svd_solve(z * sw[:, None], work * sw, cmap.labels)
        except SingularDesignError:
            # z itself has full rank, so the IRLS weights collapsed: a fitted mean went to 0
            raise EstimationError(_DIVERGED) from None
        step = np.abs(new_coef - coef).max()
        coef = new_coef
        if step < IRLS_TOL:
            converged = True
            break

    mu = np.exp(z @ coef + offset)
    vcov = _hc_vcov(z, y - mu, gram_inv)
    return _assemble(spec, data, coef, vcov, cmap, converged=converged)
