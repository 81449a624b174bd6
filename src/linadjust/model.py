"""Model specifications, the formula mini-language, and design construction.

A model is the pair of per-covariate constraint lists (gamma for main
effects, delta for treatment interactions), each entry either free or
pinned to a constant. The intercept and the treatment coefficient are
always free.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefConstraint",
    "FREE",
    "KnownMean",
    "Empirical",
    "ModelSpec",
    "Dataset",
    "ColumnMap",
    "NAMED_SPECS",
    "parse_formula",
    "format_formula",
    "named_spec",
    "build_design",
]


@dataclass(frozen=True)
class CoefConstraint:
    """Constraint on a single coefficient: free, or fixed at a finite value.

    ``value is None`` means the coefficient is unrestricted.
    """

    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is not None:
            v = float(self.value)
            if not np.isfinite(v):
                msg = f"fixed coefficient value must be finite, got {self.value!r}"
                raise ValueError(msg)
            object.__setattr__(self, "value", v)

    @property
    def is_free(self) -> bool:
        return self.value is None

    def contains(self, other: CoefConstraint) -> bool:
        """Set containment: the real line contains everything, a singleton
        contains only itself."""
        if self.is_free:
            return True
        return (not other.is_free) and self.value == other.value

    def __repr__(self) -> str:
        return "Free" if self.is_free else f"Fixed({self.value!r})"


FREE = CoefConstraint()


@dataclass(frozen=True)
class KnownMean:
    """Center covariates at a known mean vector before fitting."""

    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if not all(np.isfinite(m) for m in self.mu):
            msg = "known mean must be finite"
            raise ValueError(msg)


@dataclass(frozen=True)
class Empirical:
    """Center covariates at the sample mean of each fitted dataset."""


Centering = KnownMean | Empirical


@dataclass(frozen=True)
class ModelSpec:
    """Constraint sets for main effects (gamma) and interactions (delta).

    Parameters
    ----------
    gamma, delta : tuple of CoefConstraint
        One entry per covariate; must have equal length.
    centering : KnownMean or Empirical
        How covariates are centered when a design is built. Empirical
        centering makes the ATE estimate the shift-invariant variant
        beta_hat + delta_hat' X_bar.
    """

    gamma: tuple[CoefConstraint, ...]
    delta: tuple[CoefConstraint, ...]
    centering: Centering = field(default_factory=Empirical)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "delta", tuple(self.delta))
        if len(self.gamma) != len(self.delta):
            msg = (
                f"gamma and delta must have equal length, "
                f"got {len(self.gamma)} and {len(self.delta)}"
            )
            raise ValueError(msg)
        if len(self.gamma) == 0:
            msg = "at least one covariate is required"
            raise ValueError(msg)
        if isinstance(self.centering, KnownMean) and len(self.centering.mu) != len(self.gamma):
            msg = (
                f"known mean has length {len(self.centering.mu)}, "
                f"expected {len(self.gamma)}"
            )
            raise ValueError(msg)
        # the structure the dominance checks read, derived once: each side's free
        # indices and its fixed (index, value) pairs (``_fixed``)
        object.__setattr__(self, "_free_gamma", tuple(j for j, c in enumerate(self.gamma) if c.is_free))
        object.__setattr__(self, "_free_delta", tuple(j for j, c in enumerate(self.delta) if c.is_free))
        object.__setattr__(self, "_fixed_gamma", _fixed(self.gamma))
        object.__setattr__(self, "_fixed_delta", _fixed(self.delta))

    @property
    def p(self) -> int:
        return len(self.gamma)

    def unrestricted_gamma(self) -> tuple[int, ...]:
        """Indices (0-based) of free main-effect coefficients."""
        return self._free_gamma

    def unrestricted_delta(self) -> tuple[int, ...]:
        """Indices (0-based) of free interaction coefficients."""
        return self._free_delta

    def with_centering(self, centering: Centering) -> ModelSpec:
        return ModelSpec(self.gamma, self.delta, centering)


def _fixed(constraints) -> frozenset[tuple[int, float]]:
    """The (index, value) pairs of the fixed coefficients of a constraint tuple. Of two
    tuples of one length, the first contains the second position by position exactly
    when its pairs are a subset of the second's, and they are equal when their pairs are."""
    return frozenset((j, c.value) for j, c in enumerate(constraints) if not c.is_free)


def _check_pi(pi: float) -> None:
    if not 0.0 < pi < 1.0:
        msg = f"pi must lie in (0, 1), got {pi}"
        raise ValueError(msg)


def _check_samples(a, x, y, w=None) -> None:
    """Raise the ValueError a Dataset raises, for the first invalid sample of a stack.

    ``a`` and ``y`` are (R, n), ``x`` is (R, n, p) and ``w`` (R, ...) or
    None; a Dataset is a stack of one. Within a sample the rules apply in
    order: finite covariates and outcomes, 0/1 treatment, n >= p + 2, then
    the weights' shape and their positivity.
    """
    n, p = x.shape[1:]
    nonfinite = ~(np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=1))
    not01 = ~((a == 0.0) | (a == 1.0))
    w_shape = w is not None and w.shape != y.shape
    bad = nonfinite | not01.any(axis=1) | (n < p + 2) | w_shape
    if w is not None and not w_shape:
        bad |= ~(np.isfinite(w) & (w > 0)).all(axis=1)
    if not bad.any():
        return
    r = int(np.argmax(bad))
    if nonfinite[r]:
        msg = "covariates and outcomes must be finite"
    elif not01[r].any():
        i = int(np.argmax(not01[r]))
        msg = f"treatment indicator must be 0 or 1, got {a[r, i]!r} at row {i}"
    elif n < p + 2:
        msg = f"need at least p + 2 = {p + 2} rows, got {n}"
    elif w_shape:
        msg = f"weights shape {w.shape[1:]} does not match n={n}"
    else:
        msg = "weights must be strictly positive and finite"
    raise ValueError(msg)


class Dataset:
    """A sample of (treatment, covariates, outcome) records.

    Parameters
    ----------
    a : array_like, shape (n,)
        Treatment indicators, each exactly 0 or 1.
    x : array_like, shape (n, p) or (n,)
        Covariates; a 1-D array is treated as a single covariate.
    y : array_like, shape (n,)
        Observed outcomes.
    weights : array_like, shape (n,), optional
        Strictly positive per-unit weights.
    """

    def __init__(self, a, x, y, weights=None) -> None:
        a = np.asarray(a, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            msg = f"x must be 1-D or 2-D, got ndim={x.ndim}"
            raise ValueError(msg)
        n = x.shape[0]
        if a.shape != (n,) or y.shape != (n,):
            msg = f"shape mismatch: a {a.shape}, y {y.shape}, x {x.shape}"
            raise ValueError(msg)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
        _check_samples(a[None], x[None], y[None], None if weights is None else weights[None])
        self.a = a
        self.x = x
        self.y = y
        self.weights = weights

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:
        w = "present" if self.weights is not None else "none"
        return f"Dataset(n={self.n}, p={self.p}, weights={w})"


@dataclass(frozen=True)
class ColumnMap:
    """Maps design columns back to model coefficients.

    ``labels`` names every column of Z in order; ``gamma_cols`` and
    ``delta_cols`` map covariate index -> design column index for the
    free coefficients.
    """

    labels: tuple[str, ...]
    gamma_cols: dict[int, int]
    delta_cols: dict[int, int]


_NUMBER = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z_0-9.]*"
_TERM_RE = re.compile(rf"^(?P<side>A:)?(?P<name>{_IDENT})(?:@(?P<value>{_NUMBER}))?$")


def parse_formula(text: str, covariate_names: list[str]) -> ModelSpec:
    """Parse a model formula into a ModelSpec.

    Grammar (whitespace insignificant)::

        formula := term ("+" term)*
        term    := "1" | "A" | ident | ident "@" number
                 | "A:" ident | "A:" ident "@" number | "X" | "A:X"

    ``1`` and ``A`` are mandatory (intercept and treatment are always
    free). A bare covariate frees its main-effect coefficient;
    ``name@c`` pins it to the constant ``c``; the ``A:`` prefix does the
    same for the interaction coefficient. Absent terms are pinned to
    zero. ``X`` is shorthand for all covariates and ``A:X`` for all
    interactions, unless an actual covariate is named ``X``, in which
    case the name wins.

    Parameters
    ----------
    text : str
        The formula.
    covariate_names : list of str
        Covariate names, in column order. Must be unique and must not
        contain ``1`` or ``A``.

    Returns
    -------
    ModelSpec
        With default Empirical centering.

    Raises
    ------
    ValueError
        On syntax errors (with character position), unknown covariate
        names, duplicate terms, or a missing ``1`` or ``A`` term.

    Results are memoized per process on ``(text, tuple(covariate_names))``,
    the last 256 of them: an equal call returns the same frozen ModelSpec,
    and a call that raises raises again, with the same message.
    """
    return _parse_formula(text, tuple(covariate_names))


@functools.lru_cache(maxsize=256)
def _parse_formula(text: str, names: tuple[str, ...]) -> ModelSpec:
    """:func:`parse_formula` on a hashable tuple of names, memoized."""
    _check_names(names)
    index = {name: j for j, name in enumerate(names)}
    p = len(names)

    gamma: list[CoefConstraint | None] = [None] * p
    delta: list[CoefConstraint | None] = [None] * p
    seen: set[str] = set()

    pos = 0
    for raw in text.split("+"):
        term = raw.strip()
        at = pos + (len(raw) - len(raw.lstrip()))
        pos += len(raw) + 1
        if not term:
            msg = f"empty term at position {at} in {text!r}"
            raise ValueError(msg)
        compact = re.sub(r"\s+", "", term)
        if compact in ("1", "A"):
            if compact in seen:
                msg = f"duplicate term {compact!r}"
                raise ValueError(msg)
            seen.add(compact)
            continue
        m = _TERM_RE.match(compact)
        if m is None:
            msg = f"cannot parse term {term!r} at position {at} in {text!r}"
            raise ValueError(msg)
        side, name, val = m.group("side") or "", m.group("name"), m.group("value")
        slots = delta if side else gamma
        if name == "X" and val is None and "X" not in index:
            for j in range(p):
                _set_term(slots, j, FREE, names, side=side)
            continue
        if name not in index:
            msg = f"unknown covariate {name!r} at position {at}"
            raise ValueError(msg)
        c = FREE if val is None else CoefConstraint(float(val))
        _set_term(slots, index[name], c, names, side=side)

    for required, what in (("1", "intercept"), ("A", "treatment")):
        if required not in seen:
            msg = f"formula must contain the {what} term {required!r}"
            raise ValueError(msg)

    zero = CoefConstraint(0.0)
    return ModelSpec(
        gamma=tuple(c if c is not None else zero for c in gamma),
        delta=tuple(c if c is not None else zero for c in delta),
    )


def _check_names(names) -> None:
    """Raise unless the covariate names are unique and none is ``1`` or ``A``, which
    formulas reserve; the error cites the first name at fault."""
    for j, name in enumerate(names):
        if name in ("1", "A"):
            msg = f"covariate names '1' and 'A' are reserved, got {name!r}"
            raise ValueError(msg)
        if name in names[:j]:
            msg = f"covariate names must be unique, got {name!r} twice"
            raise ValueError(msg)


def _set_term(slots, j, constraint, names, side):
    if slots[j] is not None:
        msg = f"duplicate term for {side}{names[j]}"
        raise ValueError(msg)
    slots[j] = constraint


def _default_names(p: int) -> list[str]:
    """The covariate names X1..Xp that a spec's labels use when no file names them."""
    return [f"X{j + 1}" for j in range(p)]


def format_formula(spec: ModelSpec, covariate_names: list[str] | None = None) -> str:
    """Canonical formula text for ``spec``; inverse of parse_formula.

    The covariates are named ``covariate_names``, by default X1..Xp.
    Coefficients fixed at zero are omitted, matching the parser's
    default for absent terms.
    """
    if covariate_names is None:
        covariate_names = _default_names(spec.p)
    if len(covariate_names) != spec.p:
        msg = f"expected {spec.p} covariate names, got {len(covariate_names)}"
        raise ValueError(msg)
    parts = ["1", "A"]
    for side, coefs in (("", spec.gamma), ("A:", spec.delta)):
        for name, c in zip(covariate_names, coefs):
            if c.is_free:
                parts.append(side + name)
            elif c.value != 0.0:
                parts.append(f"{side}{name}@{c.value!r}")
    return " + ".join(parts)


NAMED_SPECS = ("ANOVA", "ANCOVA", "ANHECOVA", "DiD", "LDV")


@functools.lru_cache(maxsize=256, typed=True)
def named_spec(name: str, p: int) -> ModelSpec:
    """Build one of the named estimator specifications.

    ANOVA fits no covariates; ANCOVA frees all main effects; ANHECOVA
    frees main effects and interactions. DiD pins the first main-effect
    coefficient at 1 and LDV frees it; both require the first covariate
    to be the baseline outcome and pin its interaction at 0, freeing
    everything else.

    Results are memoized per process on ``(name, p)``, the last 256 of
    them, as :func:`parse_formula`'s are: an equal call returns the same
    frozen ModelSpec.
    """
    if p < 1:
        msg = f"p must be positive, got {p}"
        raise ValueError(msg)
    zero = CoefConstraint(0.0)
    key = name.strip().lower()
    if key == "anova":
        return ModelSpec((zero,) * p, (zero,) * p)
    if key == "ancova":
        return ModelSpec((FREE,) * p, (zero,) * p)
    if key == "anhecova":
        return ModelSpec((FREE,) * p, (FREE,) * p)
    if key == "did":
        return ModelSpec(
            (CoefConstraint(1.0),) + (FREE,) * (p - 1),
            (zero,) + (FREE,) * (p - 1),
        )
    if key == "ldv":
        return ModelSpec((FREE,) * p, (zero,) + (FREE,) * (p - 1))
    msg = f"unknown estimator name {name!r}; expected one of {NAMED_SPECS}"
    raise ValueError(msg)


def build_design(spec: ModelSpec, data: Dataset):
    """Assemble the regression design for a spec and dataset.

    Covariates are centered first (sample mean under Empirical, the
    given vector under KnownMean). Columns of Z are, in order: the
    intercept, the treatment, the free main-effect covariates, and the
    free interactions. Coefficients pinned to constants contribute to
    a per-row offset instead of a column.

    Returns
    -------
    (Z, offset, column_map) : (ndarray (n, q), ndarray (n,), ColumnMap)
        q = 2 + #free gamma + #free delta. The offset holds the fixed
        part gamma_fixed' Xc + A * delta_fixed' Xc of the fit.
    """
    _check_covariates(spec, data.p)
    z, offset, cmap = _design(spec, data.a, _center(spec.centering, data.x))
    return np.ascontiguousarray(z.T), offset, cmap


def _check_covariates(spec: ModelSpec, p: int) -> None:
    """Raise unless ``p`` covariates fit ``spec``: before centering, or a known mean broadcasts."""
    if p != spec.p:
        msg = f"dataset has p={p} covariates but spec expects {spec.p}"
        raise ValueError(msg)


def _center(centering: Centering, x: np.ndarray) -> np.ndarray:
    """Covariates ``x`` (..., n, p) centered at the known mean or each sample's mean."""
    if isinstance(centering, KnownMean):
        return x - np.asarray(centering.mu)
    return x - x.mean(axis=-2, keepdims=True)


def _design(spec: ModelSpec, a: np.ndarray, xc: np.ndarray):
    """:func:`build_design` on centered covariates, for samples stacked on leading axes.

    ``a`` is (..., n) and ``xc`` (..., n, p). Returns Z column-major, one
    C-contiguous block (..., q, n) in which each design column is a
    contiguous row, with the offset (..., n) and the ColumnMap.
    """
    q = 2 + sum(c.is_free for c in spec.gamma + spec.delta)
    z = np.empty(a.shape[:-1] + (q, a.shape[-1]))
    z[..., 0, :] = 1.0
    z[..., 1, :] = a
    labels = ["1", "A"]
    names = _default_names(spec.p)
    offset = np.zeros_like(a)
    gamma_cols: dict[int, int] = {}
    delta_cols: dict[int, int] = {}
    for side, coefs, where in (("", spec.gamma, gamma_cols), ("A:", spec.delta, delta_cols)):
        for j, c in enumerate(coefs):
            if c.is_free:
                k = where[j] = len(labels)
                labels.append(side + names[j])
                if side:
                    np.multiply(a, xc[..., j], out=z[..., k, :])
                else:
                    z[..., k, :] = xc[..., j]
            elif c.value != 0.0:
                offset += c.value * (a * xc[..., j] if side else xc[..., j])
    return z, offset, ColumnMap(tuple(labels), gamma_cols, delta_cols)
