"""Constrained least squares, sandwich variances, and the Poisson GLM.

Every fit reduces to unconstrained least squares on the free design
columns after the fixed-coefficient offset is moved to the response
(linear models) or into the linear predictor (Poisson). One kernel
serves them all: ``_wls`` is the (weighted) SVD solve with one rank
rule, used by OLS, WLS, every IRLS step and the full-model refit for
the centering penalty; ``_sandwich`` is the HC0/HC1 covariance; and
``_centered_total`` adds the empirical-centering penalty and clamps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import ColumnMap, Dataset, Empirical, ModelSpec, build_design, named_spec

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

    def to_dict(self, cov_names: list[str] | None = None) -> dict:
        """JSON-ready record; the spec names covariates ``cov_names`` (default X1..Xp)."""
        from .model import format_formula

        names = cov_names or [f"X{j + 1}" for j in range(self.spec.p)]
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
            "se_clamped": self.se_clamped,
        }


def _wls(z: np.ndarray, y: np.ndarray, labels: tuple[str, ...], w=None):
    """Least squares of y on z, weighted by w when given.

    Returns the coefficients and the bread (ZᵀWZ)⁻¹. One rank rule,
    s < SVD_RTOL·s[0], both flags a singular design and names the
    columns that load on its weak directions.
    """
    if w is not None:
        sw = np.sqrt(w)
        z = z * sw[:, None]
        y = y * sw
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    tol = SVD_RTOL * s[0]
    if s[-1] < tol or s[0] == 0.0:
        weak = np.flatnonzero(s < tol)
        involved = [labels[j] for k in weak for j in np.flatnonzero(np.abs(vt[k]) > 0.1)]
        cols = tuple(dict.fromkeys(involved)) or labels
        msg = f"singular design; offending columns: {', '.join(cols)}"
        raise SingularDesignError(msg, cols)
    return vt.T @ ((u.T @ y) / s), (vt.T / s**2) @ vt


def _sandwich(z, resid, bread, w=None, hc1=False):
    """HC0 (or HC1) covariance (ZᵀWZ)⁻¹ · Σ wᵢ²ε̂ᵢ² zᵢzᵢᵀ · (ZᵀWZ)⁻¹."""
    if w is None:
        score = z * resid[:, None]
    else:
        sw = np.sqrt(w)[:, None]
        score = z * sw * resid[:, None] * sw
    vcov = bread @ (score.T @ score) @ bread
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


def _is_full(spec: ModelSpec) -> bool:
    return all(c.is_free for c in spec.gamma) and all(c.is_free for c in spec.delta)


def _centering_penalty(sigma: np.ndarray, delta_s: np.ndarray, delta_f: np.ndarray) -> float:
    """The empirical-centering penalty delta_s' Sigma (2 delta_f - delta_s)."""
    return float(delta_s @ sigma @ (2.0 * delta_f - delta_s))


def _centered_total(data, var, delta_s, delta_f, scale, what, stacklevel):
    """Return (var + sample centering penalty / scale clamped at 0, whether it was
    clamped). A clamp warns about the centered-variance ``what`` at ``stacklevel``."""
    sigma_hat = np.cov(data.x, rowvar=False, ddof=0).reshape(data.p, data.p)
    total = var + _centering_penalty(sigma_hat, delta_s, delta_f) / scale
    if total < 0.0:
        msg = f"centered-variance {what} clamped at zero"
        warnings.warn(msg, RuntimeWarning, stacklevel=stacklevel)
        return 0.0, True
    return float(total), False


def _fit_linear(spec: ModelSpec, data: Dataset, w, hc1: bool) -> FitResult:
    """The OLS/WLS fit, with the empirical-centering penalty in ate_se."""
    _check_arms(data)
    z, offset, cmap = build_design(spec, data)
    yadj = data.y - offset
    coef, bread = _wls(z, yadj, cmap.labels, w)
    fit = _assemble(spec, data, coef, _sandwich(z, yadj - z @ coef, bread, w, hc1), cmap)
    del z, offset, yadj  # so the full-model refit below does not raise peak memory
    if isinstance(spec.centering, Empirical) and np.any(fit.delta):
        if _is_full(spec):
            delta_f = fit.delta
        else:
            zf, _, cmap_f = build_design(named_spec("ANHECOVA", spec.p), data)
            delta_f = _wls(zf, data.y, cmap_f.labels, w)[0][-spec.p :]
        total, fit.se_clamped = _centered_total(
            data, fit.vcov[1, 1], fit.delta, delta_f, data.n, "correction", stacklevel=4
        )
        fit.ate_se = float(np.sqrt(total))
    return fit


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
    return _fit_linear(spec, data, None, hc1)


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
    return _fit_linear(spec, data, data.weights, hc1)


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
    _, bread = _wls(z, yadj, cmap.labels, data.weights)
    return _sandwich(z, yadj - z @ coef, bread, data.weights, hc1)


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
    var = data.n * fit_sub.vcov[1, 1]
    return _centered_total(data, var, fit_sub.delta, fit_full.delta, 1, "estimate", 3)[0]


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

    coef, _ = _wls(z, np.log(y + 0.5) - offset, cmap.labels)
    converged = False
    for _ in range(IRLS_MAX_ITER):
        eta = z @ coef + offset
        if not np.isfinite(eta).all() or np.abs(eta).max() > 700.0:
            raise EstimationError(_DIVERGED)
        mu = np.exp(eta)
        work = (eta - offset) + (y - mu) / mu
        try:
            new_coef, bread = _wls(z, work, cmap.labels, mu)
        except SingularDesignError:
            # z itself has full rank, so the IRLS weights collapsed: a fitted mean went to 0
            raise EstimationError(_DIVERGED) from None
        step = np.abs(new_coef - coef).max()
        coef = new_coef
        if step < IRLS_TOL:
            converged = True
            break

    vcov = _sandwich(z, y - np.exp(z @ coef + offset), bread)
    return _assemble(spec, data, coef, vcov, cmap, converged=converged)
