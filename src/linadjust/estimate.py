"""Constrained least squares, sandwich variances, and the Poisson GLM.

Every fit reduces to unconstrained least squares on the free design
columns after the fixed-coefficient offset is moved to the response
(linear models) or into the linear predictor (Poisson). One stacked
kernel serves them all: ``_Stack`` holds R samples of equal shape and
``_fit`` fits one spec to every sample at once. Inside it, ``_solve`` is
the (weighted) least-squares solve used by OLS, WLS, every IRLS step and
the full-model refit for the centering penalty. It solves a sample from
its Gram matrix ZᵀWZ (one eigendecomposition, the coefficients refined
once) when the Gram is finite and its eigenvalue ratio exceeds
GRAM_RTOL = 1e-2, that is when s_max/s_min < 10. The Gram route's
distance from the SVD grows as the condition number squared; the bound
keeps it near 5e-13, inside the 1e-12 to which every estimate must
agree with the SVD. Every other sample goes to the batched SVD of
``_svd_solve``, which holds the one rank rule and is the reference the
tests compare with. ``_sandwich`` is the HC0/HC1 covariance, and
``_penalized`` adds the empirical-centering penalty and clamps.
Weighted fits use each sample's weights times an even power of two
(``_Stack.scaled_w``), which changes no result but keeps w² and ZᵀWZ
in range. A sample that cannot be fitted is NaN in the stack and keeps
the error a fit of it alone raises. The public ``fit_*`` functions fit
a stack of one; ``sim.run_grid`` fits a stack per chunk of replications.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Centering, ColumnMap, Dataset, Empirical, KnownMean, ModelSpec, build_design
from .model import _center, _design, named_spec

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
# λ_min/λ_max of ZᵀWZ above which _solve takes the Gram route (κ = s_max/s_min < 10):
# its moves against the SVD reached 4.8e-12 at κ <= 31.6 (scenario 4) and scale as κ²
GRAM_RTOL = 1e-2
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
    """The free-column Gram matrix is singular to working tolerance."""

    def __init__(self, msg: str, columns: tuple[str, ...] = ()) -> None:
        super().__init__(msg, "singular design")
        self.columns = columns


@dataclass
class FitResult:
    """Fitted coefficients, ATE estimate, and sandwich covariance.

    ``gamma`` and ``delta`` have length p with fixed entries echoed at
    their constraint values. ``vcov`` covers the free coefficients in
    design-column order (see ``labels``). ``condition_number`` is
    s_max/s_min of the (square-root-weighted) free design in the final
    solve, and ``iterations`` the number of IRLS steps (1 for a linear
    fit).
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
            "condition_number": self.condition_number,
            "iterations": self.iterations,
        }


class _Stack:
    """R samples of n rows and p covariates each, stacked on a leading axis.

    ``a`` and ``y`` are (R, n), ``x`` is (R, n, p) and ``w`` (R, n) or
    None. What every spec fitted to the stack shares is computed once:
    the covariates under each centering, the empty-arm errors, whether
    the outcomes are counts, and for the centering penalty the
    covariates' covariance and the full model's interaction estimate.
    """

    def __init__(self, datasets: list[Dataset]) -> None:
        def stack(arrays):  # a view for one sample, so a lone large fit copies nothing
            return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

        self.a = stack([d.a for d in datasets])
        self.x = stack([d.x for d in datasets])
        self.y = stack([d.y for d in datasets])
        weighted = datasets[0].weights is not None
        self.w = stack([d.weights for d in datasets]) if weighted else None
        self._centered: dict[bytes | None, np.ndarray] = {}

    @classmethod
    def of(cls, a: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> _Stack:
        """A stack of already stacked arrays."""
        st = cls.__new__(cls)
        st.a, st.x, st.y, st.w, st._centered = a, x, y, w, {}
        return st

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
        as it is (the bread scales by 4ᵏ, the meat by 4⁻²ᵏ), but w² in the
        meat cannot underflow or overflow, nor can ZᵀWZ overflow.
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

    @cached_property
    def sigma(self) -> np.ndarray:
        """Sample covariance (ddof 0) of the covariates, (R, p, p)."""
        xc = self.centered(Empirical())
        return (xc.swapaxes(-1, -2) @ xc) * (1.0 / self.n)

    @cached_property
    def full_delta(self) -> tuple[np.ndarray, dict[int, EstimationError]]:
        """Interaction estimates (R, p) of the empirically centered full model, and its errors."""
        p = self.x.shape[2]
        z, _, cmap = _design(named_spec("ANHECOVA", p), self.a, self.centered(Empirical()))
        coef, _, _, errors = _solve(z, self.y, cmap.labels, self.scaled_w)
        return coef[:, -p:], errors


@dataclass
class _Fits:
    """One spec fitted to every sample of a stack; a failed sample's row is NaN
    and ``errors`` holds what a fit of that sample alone raises."""

    spec: ModelSpec
    cmap: ColumnMap
    coef: np.ndarray
    vcov: np.ndarray
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
    """Least squares of y (R, n) on z (R, n, q), per sample, weighted by w when given.

    Returns the coefficients (R, q), the breads (ZᵀWZ)⁻¹ (R, q, q), the
    singular values (R, q) of W^½Z and, keyed by row, a
    SingularDesignError for each sample that fails the rank rule of
    ``_svd_solve``. Those rows are NaN.

    A sample whose Gram matrix G = ZᵀWZ is finite and has eigenvalues
    λ_min > GRAM_RTOL·λ_max is solved from G: one eigendecomposition
    gives the bread V·diag(1/λ)·Vᵀ and the singular values √λ, and the
    normal-equation coefficients are refined once against the residual.
    Every other sample is gathered into a sub-stack (the whole stack
    when none is left) and solved by ``_svd_solve``, which alone applies
    the rank rule. A sample's route
    and numbers depend on its own data only.
    """
    if w is not None:
        sw = np.sqrt(w)
        z = z * sw[..., None]
        y = y * sw
    zt = z.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = zt @ z
    finite = np.isfinite(gram).all(axis=(1, 2))
    gram[~finite] = np.eye(z.shape[2])  # eigh does not converge on inf or NaN
    lam, v = np.linalg.eigh(gram)
    svd = ~(finite & (lam[:, 0] > GRAM_RTOL * lam[:, -1]))
    if svd.all():
        return _svd_solve(z, y, labels)
    # rows that go to the SVD may overflow, divide by zero or hold NaN here;
    # their results are replaced below
    with np.errstate(all="ignore"):
        bread = (v / lam[:, None, :]) @ v.swapaxes(-1, -2)
        coef = (bread @ (zt @ y[..., None]))[..., 0]
        resid = y - (z @ coef[..., None])[..., 0]
        coef += (bread @ (zt @ resid[..., None]))[..., 0]
        s = np.sqrt(lam[:, ::-1])
    errors = {}
    if svd.any():
        rows = np.flatnonzero(svd)
        coef[rows], bread[rows], s[rows], sub = _svd_solve(z[rows], y[rows], labels)
        errors = {int(rows[r]): e for r, e in sub.items()}
    return coef, bread, s, errors


def _svd_solve(z, y, labels: tuple[str, ...]):
    """Unweighted least squares of y (R, n) on z (R, n, q) by one batched SVD.

    Returns what ``_solve`` returns. A sample fails the one rank rule
    s < SVD_RTOL·s[0] with a SingularDesignError that names the columns
    loading on its weak directions; its row is NaN. This is ``_solve``'s
    route for the samples the Gram matrix cannot decide, and the
    reference the tests hold ``_solve`` to.
    """
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    tol = SVD_RTOL * s[:, 0]
    bad = (s[:, -1] < tol) | (s[:, 0] == 0.0)
    errors = {}
    for r in np.flatnonzero(bad):
        weak = np.flatnonzero(s[r] < tol[r])
        involved = [labels[j] for k in weak for j in np.flatnonzero(np.abs(vt[r, k]) > 0.1)]
        cols = tuple(dict.fromkeys(involved)) or labels
        errors[int(r)] = SingularDesignError(
            f"singular design; offending columns: {', '.join(cols)}", cols
        )
    s = np.where(bad[:, None], np.nan, s)
    v = vt.swapaxes(-1, -2)
    coef = (v @ ((y[:, None, :] @ u)[:, 0] / s)[..., None])[..., 0]
    return coef, (v / s[:, None, :] ** 2) @ vt, s, errors


def _sandwich(z, resid, bread, w=None, hc1=False):
    """HC0 (or HC1) covariance (ZᵀWZ)⁻¹ · Σ wᵢ²ε̂ᵢ² zᵢzᵢᵀ · (ZᵀWZ)⁻¹, per sample."""
    if w is None:
        score = z * resid[..., None]
    else:
        sw = np.sqrt(w)[..., None]
        score = z * sw * resid[..., None] * sw
    vcov = bread @ (score.swapaxes(-1, -2) @ score) @ bread
    if hc1:
        n, q = z.shape[-2:]
        vcov *= n / max(n - q, 1)
    return 0.5 * (vcov + vcov.swapaxes(-1, -2))


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


def _fit(spec: ModelSpec, st: _Stack, family: str = "gaussian", hc1: bool = False) -> _Fits:
    """Fit ``spec`` to every sample of the stack; ``family`` is "gaussian" or "poisson"."""
    if st.x.shape[2] != spec.p:
        msg = f"dataset has p={st.x.shape[2]} covariates but spec expects {spec.p}"
        raise ValueError(msg)
    fits = _fit_poisson(spec, st) if family == "poisson" else _fit_linear(spec, st, hc1)
    # an empty arm is also a singular design, but it is reported as what it is
    fits.errors.update(st.empty_arms)
    failed = list(fits.errors)
    fits.coef[failed] = np.nan
    fits.ate_se[failed] = np.nan
    fits.clamped[failed] = False
    return fits


def _fit_linear(spec: ModelSpec, st: _Stack, hc1: bool) -> _Fits:
    """The OLS/WLS fit, with the empirical-centering penalty in ate_se."""
    z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
    yadj = st.y - offset
    coef, bread, s, errors = _solve(z, yadj, cmap.labels, st.scaled_w)
    vcov = _sandwich(z, yadj - (z @ coef[..., None])[..., 0], bread, st.scaled_w, hc1)
    del z, offset, yadj  # so the full-model refit below does not raise peak memory
    var = vcov[:, 1, 1]
    ate_se = np.sqrt(np.maximum(var, 0.0))
    clamped = np.zeros(len(var), dtype=bool)
    if isinstance(spec.centering, Empirical):
        delta = _with_fixed(spec.delta, cmap.delta_cols, coef)
        need = np.any(delta != 0.0, axis=1)
        if need.any():
            delta_f, full_errors = (delta, {}) if _is_full(spec) else st.full_delta
            total, over = _penalized(var, st.sigma, delta, delta_f, st.n)
            clamped = need & over
            ate_se = np.where(need, np.sqrt(total), ate_se)
            errors.update((r, e) for r, e in full_errors.items() if need[r] and r not in errors)
    r = len(var)
    return _Fits(spec, cmap, coef, vcov, ate_se, s[:, 0] / s[:, -1], errors, clamped,
                 np.ones(r, dtype=bool), np.ones(r, dtype=int))


def _fit_poisson(spec: ModelSpec, st: _Stack) -> _Fits:
    """Poisson IRLS as a loop of stacked weighted solves.

    Each sample keeps its own iteration sequence and stops when its
    step falls below IRLS_TOL; a sample whose linear predictor leaves
    |eta| <= 700 or whose IRLS weights collapse diverges alone.
    """
    y = st.y
    if not st.counts:
        msg = "Poisson outcomes must be nonnegative integers"
        raise ValueError(msg)
    z, offset, cmap = _design(spec, st.a, st.centered(spec.centering))
    coef, bread, s, errors = _solve(z, np.log(y + 0.5) - offset, cmap.labels)
    converged = np.zeros(len(y), dtype=bool)
    iterations = np.zeros(len(y), dtype=int)
    active = np.ones(len(y), dtype=bool)
    active[list(errors)] = False
    for it in range(1, IRLS_MAX_ITER + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        rows = slice(None) if idx.size == len(y) else idx  # no gather while all are active
        zi, oi = z[rows], offset[rows]
        eta = (zi @ coef[rows, :, None])[..., 0] + oi
        out = ~np.isfinite(eta).all(axis=1) | (np.abs(eta).max(axis=1) > 700.0)
        mu = np.exp(np.where(out[:, None], 0.0, eta))
        work = (eta - oi) + (y[rows] - mu) / mu
        new, bread[rows], s[rows], collapsed = _solve(zi, work, cmap.labels, mu)
        # z itself has full rank, so a rank failure here means the IRLS weights
        # collapsed: a fitted mean went to 0
        out[list(collapsed)] = True
        for r in idx[out]:
            errors[int(r)] = EstimationError(_DIVERGED, "Poisson divergence")
        step = np.abs(new - coef[rows]).max(axis=1)
        coef[rows] = new
        iterations[idx] = it
        done = ~out & (step < IRLS_TOL)
        converged[idx[done]] = True
        active[idx[out | done]] = False

    coef[list(errors)] = np.nan
    vcov = _sandwich(z, y - np.exp((z @ coef[..., None])[..., 0] + offset), bread)
    ate_se = np.sqrt(np.maximum(vcov[:, 1, 1], 0.0))
    return _Fits(spec, cmap, coef, vcov, ate_se, s[:, 0] / s[:, -1], errors,
                 np.zeros(len(y), dtype=bool), converged, iterations)


def _fit_one(spec: ModelSpec, data: Dataset, family: str, hc1: bool) -> FitResult:
    """Fit a stack of one; raise its error, or warn at the public function's caller on a clamp."""
    fits = _fit(spec, _Stack([data]), family, hc1)
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
    z, yadj = z[None], (data.y - offset)[None]
    w = _Stack([data]).scaled_w
    _, bread, _, errors = _solve(z, yadj, cmap.labels, w)
    if errors:
        raise errors[0]
    return _sandwich(z, yadj - z @ coef, bread, w, hc1)[0]


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
    total, clamped = _penalized(var, _Stack([data]).sigma[0], fit_sub.delta, fit_full.delta, 1)
    if clamped:
        warnings.warn(_CLAMPED.format("estimate"), RuntimeWarning, stacklevel=2)
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
    return _fit_one(spec, data, "poisson", False)
