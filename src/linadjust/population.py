"""Population least-squares solutions and exact asymptotic variances.

Every result works from the eight-quantity record (pi, Sigma, Omega1,
Omega0, mu1, mu0, q1, q0) with the convention E(X) = 0; that record
determines every residual second moment exactly, so no sampling is
involved. A population given only a sampler reads the record from the
sampler's closed-form ``moments()``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dominance import condition_centered
from .estimate import SingularDesignError, _centering_penalty
from .model import ModelSpec, _check_pi, named_spec

__all__ = [
    "ExactMoments",
    "GaussianArmSampler",
    "PopulationSpec",
    "PopulationSolution",
    "solve_population",
    "asymptotic_variance_known_mean",
    "asymptotic_variance_centered",
    "variance_gap_theorem2",
    "ancova_anova_gap",
    "make_counterexample",
    "random_moment_population",
    "population_to_dict",
    "population_from_dict",
]


def _checked_sigma(record, *vectors: str) -> np.ndarray:
    """Store the frozen ``record``'s sigma as a float matrix and its named vector
    fields as float vectors; return sigma's Cholesky factor. Raises unless sigma
    is square, every vector has its dimension, all are finite, and sigma is
    symmetric and positive definite.

    Symmetry is ``np.allclose``'s predicate |σ - σᵀ| <= 1e-8 + 1e-5·|σᵀ|,
    written out; on finite values the two agree.
    """
    sigma = np.atleast_2d(np.asarray(record.sigma, dtype=float))
    arrays = {k: np.atleast_1d(np.asarray(getattr(record, k), dtype=float)) for k in vectors}
    p = sigma.shape[0]
    if sigma.shape != (p, p):
        msg = f"sigma must be square, got shape {sigma.shape}"
        raise ValueError(msg)
    if any(v.shape != (p,) for v in arrays.values()):
        msg = f"{' and '.join(vectors)} must match sigma's dimension"
        raise ValueError(msg)
    for name, v in {"sigma": sigma, **arrays}.items():
        if not np.isfinite(v).all():
            msg = f"{name} must be finite"
            raise ValueError(msg)
        object.__setattr__(record, name, v)
    if not (np.abs(sigma - sigma.T) <= 1e-8 + 1e-5 * np.abs(sigma.T)).all():
        msg = "sigma must be symmetric"
        raise ValueError(msg)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        msg = "sigma must be positive definite"
        raise SingularDesignError(msg) from None


def _checked_scalars(record, *names: str) -> None:
    """Store each named field of the frozen ``record`` as a float; raises unless it is finite."""
    for name in names:
        v = float(getattr(record, name))
        if not math.isfinite(v):
            msg = f"{name} must be finite, got {v!r}"
            raise ValueError(msg)
        object.__setattr__(record, name, v)


# Relative rounding allowed in ExactMoments' check q_a >= mu_a^2 + omega_a' sigma^-1 omega_a;
# saturated Gaussian-arm records (s_a = 0, cond(sigma) up to 10^4) fall short by at most 1.5e-14.
MOMENT_RTOL = 1e-9


@dataclass(frozen=True)
class ExactMoments:
    """Second-order moment record of (X, Y, A) with E(X) = 0.

    sigma = E(XX'), omega_a = E(XY | A=a), mu_a = E(Y | A=a) and
    q_a = E(Y^2 | A=a). These suffice for every population solution and
    asymptotic variance in the linear class. Every field must be finite;
    a field that is not is refused by name. After sigma's checks, each
    arm's record must be a second moment: q_a >= mu_a^2 + omega_a' sigma^-1
    omega_a, up to MOMENT_RTOL of the right-hand side. That is, E((1, X, Y)
    (1, X, Y)' | A=a) is positive semidefinite, given E(X) = 0 and A
    independent of X; the equality case is an outcome linear in X.
    """

    sigma: np.ndarray
    omega1: np.ndarray
    omega0: np.ndarray
    mu1: float
    mu0: float
    q1: float
    q0: float

    def __post_init__(self) -> None:
        chol = _checked_sigma(self, "omega1", "omega0")
        _checked_scalars(self, "mu1", "mu0", "q1", "q0")
        arms = ((1, self.omega1, self.mu1, self.q1), (0, self.omega0, self.mu0, self.q0))
        for arm, omega, mu, q in arms:
            half = np.linalg.solve(chol, omega)  # L⁻¹ω, so ω'Σ⁻¹ω = ‖L⁻¹ω‖²
            least = mu * mu + float(half @ half)
            if not q >= least * (1.0 - MOMENT_RTOL):  # a NaN q or bound fails too
                msg = (
                    f"q{arm} = {q!r} is not at least mu{arm}^2 + omega{arm}' sigma^-1 omega{arm} = "
                    f"{least!r}: no distribution has these moments in arm {arm}"
                )
                raise ValueError(msg)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class GaussianArmSampler:
    """Gaussian covariates with linear arm-wise outcome laws.

    X ~ N(0, sigma); Y(a) = b_a + l_a'X + s_a * e with independent
    standard normal noise. Closed-form moments are exact. sigma is checked
    as ExactMoments checks it, and every field must be finite.
    """

    sigma: np.ndarray
    b0: float
    b1: float
    l0: np.ndarray
    l1: np.ndarray
    s0: float
    s1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_chol", _checked_sigma(self, "l0", "l1"))
        _checked_scalars(self, "b0", "b1", "s0", "s1")

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def moments(self) -> ExactMoments:
        q1 = self.b1**2 + self.l1 @ self.sigma @ self.l1 + self.s1**2
        q0 = self.b0**2 + self.l0 @ self.sigma @ self.l0 + self.s0**2
        sigma = self.sigma
        return ExactMoments(sigma=sigma, omega1=sigma @ self.l1, omega0=sigma @ self.l0,
                            mu1=self.b1, mu0=self.b0, q1=q1, q0=q0)

    def potential(self, n: int, rng: np.random.Generator):
        """Draw covariates and both potential outcomes."""
        x, y1, y0 = self.potentials(n, [rng])
        return x[0], y1[0], y0[0]

    def potentials(self, n: int, rngs: list[np.random.Generator]):
        """One draw of ``potential`` per generator, stacked: x (R, n, p), y1 and y0 (R, n).

        Each generator fills its row of standard normals in one call, in
        stream order: the n x p covariate draws, then the treated and the
        control noise. The transforms then run once on the whole stack: the
        matrix products x = z·Lᵀ and x·l_a at p >= 2. At p = 1 each of those
        products has a single term, which a matmul computes as the one
        rounded product; so the elementwise z·L₀₀ and x·l_a[0] give the
        same bits, without numpy's matmul loop over 1×1 blocks.
        """
        r, m = len(rngs), n * self.p
        normals = np.empty((r, m + 2 * n))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=normals[k])
        e1, e0 = normals[:, m : m + n], normals[:, m + n :]
        if self.p == 1:
            x = normals[:, :n] * self._chol[0, 0]
            y1 = self.b1 + x * self.l1[0] + self.s1 * e1
            y0 = self.b0 + x * self.l0[0] + self.s0 * e0
            return x[..., None], y1, y0
        x = normals[:, :m].reshape(r, n, self.p) @ self._chol.T
        y1 = self.b1 + x @ self.l1 + self.s1 * e1
        y0 = self.b0 + x @ self.l0 + self.s0 * e0
        return x, y1, y0


@dataclass(frozen=True)
class PopulationSpec:
    """Assignment probability plus a moment record and/or a sampler.

    Given only a sampler, ``moments`` is set from ``sampler.moments()``.
    """

    pi: float
    moments: ExactMoments | None = None
    sampler: GaussianArmSampler | None = None

    def __post_init__(self) -> None:
        _check_pi(self.pi)
        if self.moments is None:
            if self.sampler is None:
                msg = "population needs moments, a sampler, or both"
                raise ValueError(msg)
            object.__setattr__(self, "moments", self.sampler.moments())

    @property
    def p(self) -> int:
        return self.moments.p


@dataclass(frozen=True)
class PopulationSolution:
    """Population least-squares coefficients for one ModelSpec."""

    alpha: float
    beta: float
    gamma: np.ndarray
    delta: np.ndarray
    beta_ate: float


def solve_population(spec: ModelSpec, pop: PopulationSpec) -> PopulationSolution:
    """Solve the restricted population least-squares problem exactly.

    The first-order conditions reduce, with E(X) = 0 and A independent
    of X, to alpha = mu0, beta = mu1 - mu0, and the symmetric linear
    system over the free gamma and delta entries

        [Sigma_FF   pi*Sigma_FG] [gamma_F]   [Omega_bar_F - fixed]
        [pi*Sigma_GF pi*Sigma_GG] [delta_G] = [pi*(Omega1_G - fixed)]

    where Omega_bar = pi*Omega1 + (1-pi)*Omega0. Fixed coefficients are
    echoed in the returned vectors.
    """
    pi, mom = pop.pi, pop.moments
    if spec.p != mom.p:
        msg = f"spec has p={spec.p} covariates but population has p={mom.p}"
        raise ValueError(msg)
    sigma = mom.sigma
    omega_bar = pi * mom.omega1 + (1.0 - pi) * mom.omega0

    gamma = np.array([0.0 if c.is_free else c.value for c in spec.gamma])
    delta = np.array([0.0 if c.is_free else c.value for c in spec.delta])
    f_idx = list(spec.unrestricted_gamma())
    g_idx = list(spec.unrestricted_delta())
    if f_idx or g_idx:
        # rows = Σ[F ∪ G, :] and k = its (F ∪ G) columns, filled in place: the
        # products and sums are those of the block form above, in its order,
        # and the lower-left block is the transpose of the upper-right
        m = len(f_idx)
        rows = sigma[f_idx + g_idx]
        k = rows[:, f_idx + g_idx]
        k[:m, m:] *= pi
        k[m:, m:] *= pi
        k[m:, :m] = k[:m, m:].T
        rhs = np.empty(len(k))
        rhs[:m] = omega_bar[f_idx] - rows[:m] @ gamma - pi * (rows[:m] @ delta)
        rhs[m:] = pi * (mom.omega1[g_idx] - rows[m:] @ gamma - rows[m:] @ delta)
        try:
            sol = np.linalg.solve(k, rhs)
        except np.linalg.LinAlgError:
            msg = "population normal equations are singular"
            raise SingularDesignError(msg) from None
        gamma[f_idx] = sol[:m]
        delta[g_idx] = sol[m:]

    beta_ate = mom.mu1 - mom.mu0
    return PopulationSolution(alpha=mom.mu0, beta=beta_ate, gamma=gamma, delta=delta,
                              beta_ate=beta_ate)


def _residual_second_moment(mom: ExactMoments, sol: PopulationSolution, arm: int) -> float:
    """E[eps^2 | A=arm] from the moment record; exact, no 4th moments. The
    clamp at 0 absorbs rounding: ExactMoments refuses a record whose
    residual moments are negative beyond it."""
    c = sol.gamma + arm * sol.delta
    omega = mom.omega1 if arm == 1 else mom.omega0
    mu = mom.mu1 if arm == 1 else mom.mu0
    q = mom.q1 if arm == 1 else mom.q0
    m2 = q - mu * mu - 2.0 * (c @ omega) + c @ mom.sigma @ c
    return max(float(m2), 0.0)


def _known_mean_variance(mom: ExactMoments, sol: PopulationSolution, pi: float) -> float:
    """The arm-wise residual variance sum m2(1)/pi + m2(0)/(1-pi)."""
    m1 = _residual_second_moment(mom, sol, 1)
    m0 = _residual_second_moment(mom, sol, 0)
    return m1 / pi + m0 / (1.0 - pi)


def asymptotic_variance_known_mean(spec: ModelSpec, pop: PopulationSpec) -> float:
    """n * avar of the treatment coefficient with a known covariate mean.

    Equals m2(1)/pi + m2(0)/(1-pi) with m2(a) the arm-wise residual
    second moment at the population solution.
    """
    return _known_mean_variance(pop.moments, solve_population(spec, pop), pop.pi)


def asymptotic_variance_centered(spec: ModelSpec, pop: PopulationSpec) -> float:
    """n * avar of the empirically centered estimate.

    Adds the interaction penalty delta_s' Sigma (2 delta_f - delta_s)
    to the known-mean variance, with delta_f from the all-free model.
    """
    full = solve_population(named_spec("ANHECOVA", spec.p), pop)
    sol = solve_population(spec, pop)
    penalty = _centering_penalty(pop.moments.sigma, sol.delta, full.delta)
    return _known_mean_variance(pop.moments, sol, pop.pi) + penalty


def _theorem2_gap(
    pop: PopulationSpec, sol1: PopulationSolution, sol2: PopulationSolution
) -> float:
    """The closed-form centered gap V2_tilde - V1_tilde from the two solutions."""
    v = sol1.gamma - sol2.gamma + (1.0 - pop.pi) * (sol1.delta - sol2.delta)
    return float(v @ pop.moments.sigma @ v) / (pop.pi * (1.0 - pop.pi))


def variance_gap_theorem2(spec1: ModelSpec, spec2: ModelSpec, pop: PopulationSpec) -> float:
    """Closed-form centered variance gap V2_tilde - V1_tilde.

    Requires the centered dominance condition (nested constraints and
    equal free sets for spec1). The gap is the quadratic form
    (d_gamma + (1-pi) d_delta)' Sigma (d_gamma + (1-pi) d_delta)
    divided by pi(1-pi), hence always nonnegative.
    """
    if not condition_centered(spec1, spec2):
        msg = (
            "centered dominance condition violated: needs nested constraints "
            "and equal free main-effect/interaction sets for the first spec"
        )
        raise ValueError(msg)
    return _theorem2_gap(pop, solve_population(spec1, pop), solve_population(spec2, pop))


def ancova_anova_gap(pop: PopulationSpec) -> float:
    """Exact V(ANCOVA) - V(ANOVA) under known-mean centering.

    Equals (gamma_f + pi*delta_f)' Sigma ((3pi-2) delta_f - gamma_f)
    / (pi(1-pi)); either sign can occur.
    """
    ancova, anova = (
        asymptotic_variance_known_mean(named_spec(name, pop.p), pop)
        for name in ("ANCOVA", "ANOVA")
    )
    return ancova - anova


COUNTEREXAMPLE_KINDS = ("AncovaWorse", "InteractionsOnlyWorseCentered")


def make_counterexample(kind: str, pi: float) -> PopulationSpec:
    """Single-covariate populations where a named dominance claim fails.

    AncovaWorse (pi != 1/2): arm slopes l0 = pi - 1, l1 = pi give
    gamma_f = (pi-1) delta_f with delta_f = 1, so the ANCOVA-minus-ANOVA
    gap is (2pi-1)^2 / (pi(1-pi)) > 0.

    InteractionsOnlyWorseCentered (pi > 1/2): slopes l1 = 1, l0 = -1/2
    give Omega0 = -Omega1/2, and the centered interactions-only
    estimator trails the unadjusted one by exactly (2pi-1)/pi. For
    pi <= 1/2 that gap is nonpositive, so this family has no
    counterexample there and this raises; other populations do have one
    at pi <= 1/2.
    """
    _check_pi(pi)
    if kind == "AncovaWorse":
        if pi == 0.5:
            msg = "AncovaWorse needs pi != 1/2; the gap vanishes with (2pi-1)^2"
            raise ValueError(msg)
        sampler = GaussianArmSampler(
            sigma=np.eye(1), b0=0.0, b1=1.0,
            l0=np.array([pi - 1.0]), l1=np.array([pi]), s0=1.0, s1=1.0,
        )
    elif kind == "InteractionsOnlyWorseCentered":
        if pi <= 0.5:
            msg = (
                "InteractionsOnlyWorseCentered needs pi > 1/2: the centered "
                "gap is (2pi-1)/pi times a positive quadratic form"
            )
            raise ValueError(msg)
        sampler = GaussianArmSampler(
            sigma=np.eye(1), b0=0.0, b1=1.0,
            l0=np.array([-0.5]), l1=np.array([1.0]), s0=1.0, s1=1.0,
        )
    else:
        msg = f"unknown counterexample kind {kind!r}; expected one of {COUNTEREXAMPLE_KINDS}"
        raise ValueError(msg)
    return PopulationSpec(pi=pi, sampler=sampler)


def random_moment_population(rng: np.random.Generator, p: int | None = None) -> PopulationSpec:
    """Random Gaussian-arm population for property suites.

    Covariance eigenvalues stay within a condition number of 1000;
    slopes and intercepts are uniform on [-2, 2], noise scales on
    [0.3, 2], and pi on [0.1, 0.9].
    """
    if p is None:
        p = int(rng.integers(1, 4))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=p))
    eigs = np.clip(eigs, eigs.max() / 1000.0, None)
    sigma = (q * eigs) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    sampler = GaussianArmSampler(
        sigma=sigma,
        b0=float(rng.uniform(-2, 2)),
        b1=float(rng.uniform(-2, 2)),
        l0=rng.uniform(-2, 2, size=p),
        l1=rng.uniform(-2, 2, size=p),
        s0=float(rng.uniform(0.3, 2.0)),
        s1=float(rng.uniform(0.3, 2.0)),
    )
    pi = float(rng.uniform(0.1, 0.9))
    return PopulationSpec(pi=pi, sampler=sampler)


def population_to_dict(pop: PopulationSpec) -> dict:
    """JSON-ready serialization of the moment record."""
    m = pop.moments
    record = {f.name: np.asarray(getattr(m, f.name)).tolist() for f in fields(ExactMoments)}
    return {"pi": pop.pi, **record}


# A population record's fields by depth: 0 a number, 1 a list of numbers, 2 a list of lists.
_RECORD = {"pi": 0, "sigma": 2, "omega1": 1, "omega0": 1, "mu1": 0, "mu0": 0, "q1": 0, "q0": 0}
_DEPTHS = ("a number", "a list of numbers", "a list of lists of numbers")


def population_from_dict(d: dict) -> PopulationSpec:
    """The population of a record as ``population_to_dict`` writes it and JSON
    reads it: an object whose pi, mu_a and q_a are numbers, whose omega_a are
    lists of numbers and whose sigma is a list of lists of them. A number is an
    int or a float that a double holds, not a bool, a string or None. A field
    that is missing or not of its shape is refused by name.
    """
    if not isinstance(d, dict):
        msg = f"population record must be a JSON object, got {type(d).__name__}"
        raise ValueError(msg)
    for name, depth in _RECORD.items():
        if name not in d:
            msg = f"population record is missing field {name!r}"
            raise ValueError(msg)
        if not _numbers(d[name], depth):
            msg = f"{name} must be {_DEPTHS[depth]}, got {d[name]!r}"
            raise ValueError(msg)
    moments = ExactMoments(**{f.name: d[f.name] for f in fields(ExactMoments)})
    return PopulationSpec(pi=float(d["pi"]), moments=moments)


def _numbers(v, depth: int) -> bool:
    """Whether v is a number a double holds (depth 0) or a list of ``depth`` levels of them."""
    if depth:
        return isinstance(v, list) and all(_numbers(x, depth - 1) for x in v)
    return isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)
