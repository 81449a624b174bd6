"""Seeded Monte Carlo engine for the four simulation scenarios.

Each standard scenario is written once, as a ``_Law``. Covariates are
drawn as X_nc ~ N(2, 1) and shifted by the population mean,
X = X_nc - 2, before any propensity or outcome is formed; the raw draws
are retained on the result. Centering at the sample mean is an analysis
step that happens inside the fits, so the empirically centered estimate
genuinely differs from the known-mean one.
Scenario 1: Y(1) = 5 + 2.5X + e1, Y(0) = 3 + X + e0, Bernoulli(pi)
assignment; effect 2. Scenario 2: Poisson outcomes with log means
3 + 0.6X and 1 + 0.6X; effect e^3.18 - e^1.18, since
E exp(c + 0.6X) = exp(c + 0.18). Scenario 3: Y(1) = 7 + X + e1,
Y(0) = 2 - X + X^2 + e0, assigned by the logit z = 4 - 2X, so with
probability pi(X) = 1 / (1 + e^-z); effect 7 - (2 + E X^2) = 4.
Scenario 4 adds the weights 1 / (pi(X)(1 - pi(X))) to Scenario 3,
computed in the cancellation-free form e^z + 2 + e^-z. Treated
potential outcomes are read with A = 1 substituted into their
formulas. These effects are exact. A custom scenario takes its effect
from ``beta_ate``, or else as mu1 - mu0 from its sampler's closed-form
``moments()``.

Seeds: replication r of a cell is ``draw(scn, rep_seed(root, key, r),
pi)``, whose numpy ``SeedSequence`` hashes (root, cell key digest, r).
``run_grid`` keeps exactly those streams but derives the PCG64 state
words of a cell's replications together (``_rep_states``), one call per
block of up to SEED_BLOCK replications, and hands each chunk its slice.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _escape

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .estimate import EstimationError, _fit, _Stack
from .model import Dataset, ModelSpec, _check_covariates, _check_pi, _check_samples, format_formula
from .model import named_spec
from .population import GaussianArmSampler

__all__ = [
    "Scenario",
    "scenario",
    "custom_scenario",
    "DrawResult",
    "MonteCarloCell",
    "MonteCarloReport",
    "draw",
    "run_grid",
    "rep_seed",
    "figure1_data",
    "did_vs_ldv_experiment",
    "REPORT_FIELDS",
    "FIGURE1_PIS",
    "DID_LDV_CONFIGS",
]

# The report's columns: (field, text width, text format); CSV and JSON hold each value as it is
_COLUMNS = (
    ("scenario", 10, ""), ("model", 24, ""), ("pi", 6, "g"), ("n", 6, ""), ("reps", 8, ""),
    ("bias", 12, ".6f"), ("sd", 12, ".6f"), ("mc_se", 12, ".6f"), ("fail_rate", 10, ".4f"),
)
REPORT_FIELDS = tuple(name for name, _, _ in _COLUMNS)
FAIL_RATE_LIMIT = 0.01
# Replications are drawn and fitted in chunks of about CHUNK_ROWS rows, which
# keeps the stacked arrays of small n in cache. At larger n a chunk still holds
# CHUNK_MIN_REPS replications, up to 4·CHUNK_ROWS rows (256 kB per stacked
# column), because each chunk pays a fixed set-up of a few replications' worth.
CHUNK_ROWS = 8192
CHUNK_MIN_REPS = 16
# A cell's seeds are derived SEED_BLOCK replications at a time (``_chunk_states``):
# one call for any cell up to that size, and the working set of a block (about
# 0.5 MB under tracemalloc) stays below that of a chunk however long the cell.
SEED_BLOCK = 4096


def _chunk_reps(n: int) -> int:
    """Replications per ``run_grid`` chunk at n rows each.

    CHUNK_ROWS // n, raised to CHUNK_MIN_REPS as long as those fit in
    4·CHUNK_ROWS rows, and at least one: 40 at n = 200, 16 at n = 1000,
    6 at n = 5000 and 1 above 32,768 rows.
    """
    return max(CHUNK_ROWS // n, min(CHUNK_MIN_REPS, 4 * CHUNK_ROWS // n), 1)


@dataclass(frozen=True)
class _Law:
    """Data-generating process of one standard scenario.

    X_raw ~ N(2, 1) and X = X_raw - 2. ``means`` maps X to the arm
    means (mean_1(X), mean_0(X)); Y(a) is mean_a(X) plus standard normal
    noise for the "gaussian" family, or Poisson with mean mean_a(X) for
    the "poisson" family, which is also fit by the Poisson GLM.
    Treatment is Bernoulli(1 / (1 + e^-z)) with z = ``logit``(X), or
    Bernoulli(pi) with pi set per run when there is no logit. A
    ``weighted`` law gives each unit the weight 1 / (pi(X)(1 - pi(X))).
    ``truth`` is the exact E[Y(1) - Y(0)].
    """

    means: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    truth: float
    family: str = "gaussian"
    logit: Callable[[np.ndarray], np.ndarray] | None = None
    weighted: bool = False


def _linear_means(x):
    return 5.0 + 2.5 * x, 3.0 + x


def _log_linear_means(x):
    return np.exp(3.0 + 0.6 * x), np.exp(1.0 + 0.6 * x)


def _quadratic_means(x):
    return 7.0 + x, 2.0 - x + x * x


def _linear_logit(x):
    return 4.0 - 2.0 * x


_SCENARIO3 = _Law(_quadratic_means, truth=4.0, logit=_linear_logit)

_LAWS = {
    1: _Law(_linear_means, truth=2.0),
    2: _Law(_log_linear_means, truth=float(np.exp(3.18) - np.exp(1.18)), family="poisson"),
    3: _SCENARIO3,
    4: replace(_SCENARIO3, weighted=True),
}


@dataclass(frozen=True)
class Scenario:
    """One simulation scenario, checked here however it is built.

    Without a sampler, ``id`` is an integer 1-4 (not a bool or float)
    naming a standard scenario; scenarios 3 and 4 assign by expit(4 - 2X)
    and ignore any pi. A custom scenario draws from its ``sampler``. A
    given ``pi`` lies in (0, 1); without one, each run passes its own.
    ``n`` is an integer >= 4. id and n are stored as ``int``. ``beta_ate``
    is resolved once, here: the given value, else the law's exact truth,
    else mu1 - mu0 from the sampler's ``moments()``.
    """

    id: int | str
    n: int = 1000
    pi: float | None = None
    sampler: object | None = None
    beta_ate: float | None = None

    def __post_init__(self) -> None:
        if self.sampler is None:
            if type(self.id) is bool or not hasattr(self.id, "__index__") or self.id not in _LAWS:
                msg = f"scenario {self.id!r} needs a sampler unless its id is 1..4"
                raise ValueError(msg)
            object.__setattr__(self, "id", operator.index(self.id))
        if not hasattr(self.n, "__index__") or self.n < 4:
            msg = f"scenario needs n >= 4, got {self.n!r}"
            raise ValueError(msg)
        object.__setattr__(self, "n", operator.index(self.n))
        if self.pi is not None:
            _check_pi(self.pi)
        if self.beta_ate is None:
            if self.law is not None:
                truth = self.law.truth
            elif hasattr(self.sampler, "moments"):
                mom = self.sampler.moments()
                truth = mom.mu1 - mom.mu0
            else:
                msg = f"scenario {self.id!r} needs beta_ate: its sampler has no exact moments()"
                raise ValueError(msg)
            object.__setattr__(self, "beta_ate", truth)

    @property
    def law(self) -> _Law | None:
        return _LAWS.get(self.id) if self.sampler is None else None

    @property
    def weighted(self) -> bool:
        return self.law is not None and self.law.weighted

    @property
    def covariate_assignment(self) -> bool:
        return self.law is not None and self.law.logit is not None


scenario = Scenario


def custom_scenario(
    sampler, pi: float | None, beta_ate: float | None = None, n: int = 1000, id: str = "custom"
) -> Scenario:
    """Wrap a potential-outcome sampler as a scenario; with pi None, each run passes its own."""
    return Scenario(id=id, n=n, pi=pi, sampler=sampler, beta_ate=beta_ate)


@dataclass
class DrawResult:
    """One replication: dataset plus hidden potential outcomes.

    ``data.x`` holds the population-centered covariate (mean zero in
    the population, not in the sample); ``x_raw`` the N(2,1) draws.
    """

    data: Dataset
    y1: np.ndarray
    y0: np.ndarray
    x_raw: np.ndarray
    pi_x: np.ndarray | None = None


def _assignment_pi(scn: Scenario, pi: float | None) -> float | None:
    """The constant assignment probability of a draw; None under covariate-dependent assignment."""
    if scn.covariate_assignment:
        return None
    p = pi if pi is not None else scn.pi
    if p is None:
        msg = f"scenario {scn.id} needs an explicit assignment probability"
        raise ValueError(msg)
    _check_pi(p)
    return p


def _observe(u: np.ndarray, p, y1, y0) -> tuple[np.ndarray, np.ndarray]:
    """Treatment a = 1{u < p} and the observed outcome a*Y(1) + (1-a)*Y(0)."""
    a = (u < p).astype(float)
    return a, a * y1 + (1.0 - a) * y0


def _sampler_potentials(
    sampler, n: int, rngs: list, u: np.ndarray, p: float, lo: int, first: int | None
):
    """Stacked potential outcomes of a sampler that has only ``potential(n, rng)``.

    Generator k draws replication lo + k's potential outcomes, then its
    assignment uniforms ``u[k]``, and the replication is checked by
    Dataset's rules, all as a lone ``draw`` does, so the first invalid
    replication raises what ``draw`` raises for it. A replication whose
    number of covariates differs from replication 0's (``first``, or None
    in the chunk that draws replication 0) raises too. Returns x (R, n, p),
    y1 and y0 (R, n), and x stacked in the shape of the first
    replication's, so x may be (n,) in some draws and (n, 1) in others.
    """
    draws = []
    for k, rng in enumerate(rngs):
        x, y1, y0 = sampler.potential(n, rng)
        rng.random(out=u[k])
        a, y = _observe(u[k], p, y1, y0)  # may raise the replication's broadcast error
        cols = Dataset(a, x, y).p  # or its shape or value error
        if first is None:
            first = cols
        elif cols != first:
            msg = f"replication {lo + k} draws {cols} covariates but replication 0 draws {first}"
            raise ValueError(msg)
        if not draws:
            shape = np.shape(x)
        draws.append((np.reshape(x, shape), y1, y0))
    xs, ys1, ys0 = (np.array(v, dtype=float) for v in zip(*draws))
    return xs.reshape(len(rngs), n, -1), ys1, ys0, xs


def _draw_chunk(
    scn: Scenario, p: float | None, rngs: list[np.random.Generator], lo: int = 0,
    cols: int | None = None,
):
    """One replication per generator: (a, x, y, weights, y1, y0, x_raw, pi_x), stacked.

    Two steps. Each generator first fills its raw variates into stacked
    buffers in its stream's order: a standard scenario's X, assignment
    uniforms, then the noise of Y(1) and of Y(0) in one call (a Poisson
    scenario draws its counts in a second pass, once the means are
    known); a custom sampler's potential outcomes, then the uniforms.
    Every transform then runs once on the whole chunk. x is (R, n, p);
    a custom sampler's x is also its x_raw. Values are not validated.
    The first generator draws replication ``lo``, which errors name; a
    custom sampler's replications must draw ``cols`` covariates, replication
    0's, when it is known.
    """
    n, law, reps = scn.n, scn.law, len(rngs)
    u = np.empty((reps, n))
    pi_x = weights = None
    if law is None:
        if hasattr(scn.sampler, "potentials"):
            x_raw, y1, y0 = scn.sampler.potentials(n, rngs)
            x = x_raw[..., None] if np.ndim(x_raw) == 2 else x_raw  # (R, n): one covariate
            if cols is not None and (got := x.shape[2]) != cols:
                msg = f"replication {lo} draws {got} covariates but replication 0 draws {cols}"
                raise ValueError(msg)
            for k, rng in enumerate(rngs):
                rng.random(out=u[k])
        else:
            x, y1, y0, x_raw = _sampler_potentials(scn.sampler, n, rngs, u, p, lo, cols)
        a, y = _observe(u, p, y1, y0)
        return a, x, y, weights, y1, y0, x_raw, pi_x
    gaussian = law.family == "gaussian"
    x_raw = np.empty((reps, n))
    noise = np.empty((reps, 2 * n)) if gaussian else None  # that of Y(1), then of Y(0)
    for k, rng in enumerate(rngs):
        x_raw[k] = rng.normal(2.0, 1.0, n)
        rng.random(out=u[k])
        if gaussian:
            rng.standard_normal(out=noise[k])
    # temporaries are updated in place or deleted once dead, which keeps the
    # chunk's peak memory down and changes no bit
    x = x_raw - 2.0
    if law.logit is not None:
        z = law.logit(x)
        e_neg = np.exp(-z)
        if law.weighted:
            # 1 / (pi(1 - pi)) without forming 1 - pi, which cancels for the heaviest units
            weights = np.exp(z) + 2.0 + e_neg
        e_neg += 1.0
        pi_x = np.divide(1.0, e_neg, out=e_neg)
    mean1, mean0 = law.means(x)
    if gaussian:
        y1, y0 = noise[:, :n], noise[:, n:]
        y1 += mean1
        y0 += mean0
    else:
        y1, y0 = np.empty((reps, n)), np.empty((reps, n))
        for k, rng in enumerate(rngs):
            y1[k] = rng.poisson(mean1[k])
            y0[k] = rng.poisson(mean0[k])
    del mean1, mean0
    a, y = _observe(u, p if pi_x is None else pi_x, y1, y0)
    return a, x[..., None], y, weights, y1, y0, x_raw, pi_x


def draw(scn: Scenario, seed, pi: float | None = None) -> DrawResult:
    """Deterministically draw one replication of a scenario.

    ``pi`` overrides the scenario's constant assignment probability and
    is ignored under covariate-dependent assignment.
    """
    p = _assignment_pi(scn, pi)
    rows = _draw_chunk(scn, p, [np.random.default_rng(seed)])
    a, x, y, w, y1, y0, x_raw, pi_x = (None if v is None else v[0] for v in rows)
    # a copy: a custom sampler's x_raw is also the dataset's x
    return DrawResult(Dataset(a, x, y, w), y1, y0, np.array(x_raw), pi_x)


def _draw_stack(
    scn: Scenario, p: float | None, states: np.ndarray, lo: int = 0, cols: int | None = None
) -> _Stack:
    """Draw one chunk of replications straight into a stack.

    Replication lo + k is drawn from a PCG64 generator seeded with the
    state words ``states[k]``, so its data are those of ``draw`` with the seed
    that gave those words. The chunk is validated once, by Dataset's
    rules: the first invalid replication raises what ``draw`` raises
    for it.
    """
    rngs = [np.random.Generator(np.random.PCG64(_Derived(state))) for state in states]
    a, x, y, w, *_ = _draw_chunk(scn, p, rngs, lo, cols)
    _check_samples(a, x, y, w)
    return _Stack(a, x, y, w)


@dataclass
class MonteCarloCell:
    """Aggregates for one (scenario, model, pi) cell.

    ``failures`` counts the dropped replications by cause ("empty arm",
    "singular design", "Poisson divergence"); it is not a report field.
    """

    scenario: int | str
    model: str
    pi: float | None
    n: int
    reps: int
    bias: float
    sd: float
    mc_se: float
    fail_rate: float
    mean_se: float | None = None
    estimates: np.ndarray | None = field(default=None, repr=False)
    failures: dict[str, int] = field(default_factory=dict)

    def row(self) -> dict:
        return {k: getattr(self, k) for k in REPORT_FIELDS}


@dataclass
class MonteCarloReport:
    """Cells plus the root seed; serializable as long-format CSV or JSON."""

    cells: list[MonteCarloCell]
    seed: int

    def cell(self, model: str, pi: float | None = None) -> MonteCarloCell:
        for c in self.cells:
            if c.model == model and (pi is None or c.pi == pi):
                return c
        msg = f"no cell for model {model!r}, pi {pi!r}"
        raise KeyError(msg)

    def to_csv(self) -> str:
        return _csv([REPORT_FIELDS, *(c.row().values() for c in self.cells)])

    def to_json(self) -> str:
        return _json([c.row() for c in self.cells]) + "\n"

    def to_text(self) -> str:
        """Left-aligned columns, as wide as ``_COLUMNS`` says unless a value
        reaches a column's edge: that column is its longest value plus a space."""
        rows = [c.row() for c in self.cells]
        cols = [[name, *("" if r[name] is None else format(r[name], fmt) for r in rows)]
                for name, _, fmt in _COLUMNS]
        widths = [max(w, 1 + max(map(len, col))) for col, (_, w, _) in zip(cols, _COLUMNS)]
        lines = ("".join(f"{v:<{w}}" for v, w in zip(line, widths)) for line in zip(*cols))
        return "\n".join(lines) + "\n"


def _csv(rows) -> str:
    """``rows`` as CSV lines ending in ``\\n``, each field quoted only if it must be."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _json(v, nl: str = "\n") -> str:
    """The text ``json.dumps`` writes for ``v`` at an indent of 2, built without
    json's pure-Python encoder: strings by ``encode_basestring_ascii``, ints and
    floats (subclasses included) by ``int.__repr__`` and ``float.__repr__``, ``NaN``
    and ``±Infinity`` as json writes them, tuples as lists, and json's ``TypeError``
    for a value or key it refuses. Types are tried in json's order, so a bool is
    not taken for an int. A container must not hold itself. ``nl`` is the line
    break of the indentation ``v`` is nested at."""
    if isinstance(v, str):
        return _escape(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    inner = nl + "  "
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in v]) + nl + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [_json_key(k) + ": " + _json(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _json_key(k) -> str:
    """A dict key as json writes it: a string, or a number, bool or None in quotes."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return '"' + _json(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _digest(cell_key: str) -> int:
    return int.from_bytes(hashlib.sha256(cell_key.encode()).digest()[:8], "big")


def _integer(value, what: str) -> int:
    """``value`` as an ``int``: an integer, numpy's included, but not a bool or a float."""
    if type(value) is bool or not hasattr(value, "__index__"):
        msg = f"{what} must be an integer, got {value!r}"
        raise TypeError(msg)
    return operator.index(value)


def _nonnegative(value, what: str) -> int:
    """``value`` as an ``int`` (``_integer``) that a SeedSequence takes: not negative."""
    v = _integer(value, what)
    if v < 0:
        msg = f"{what}: expected non-negative integer, got {v}"
        raise ValueError(msg)
    return v


def rep_seed(root_seed: int, cell_key: str, rep: int) -> np.random.SeedSequence:
    """Derived seed for one replication; independent across cells and reps.
    ``root_seed`` and ``rep`` are non-negative integers, as ``run_grid``'s seed
    and replication indices are."""
    root, rep = _nonnegative(root_seed, "root_seed"), _nonnegative(rep, "rep")
    return np.random.SeedSequence((root, _digest(cell_key), rep))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, k: int) -> np.ndarray:
    """The running hash multipliers init * mult**i mod 2**32, i < k, as a column."""
    return np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(k)], np.uint32)[:, None]


_A, _B = _powers(_INIT_A, _MULT_A, 64), _powers(_INIT_B, _MULT_B, 9)  # A: entropy of <= 15 words
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _words(v: int) -> list[int]:
    """A seed integer as SeedSequence reads it: 32-bit words, least significant first."""
    if v < 0:
        msg = "expected non-negative integer"
        raise ValueError(msg)
    return [(v >> b) & 0xFFFFFFFF for b in range(0, max(v.bit_length(), 1), 32)]


def _rep_states(root: int, digest: int, lo: int, hi: int) -> np.ndarray:
    """PCG64 state words (hi - lo, 4) of replications lo..hi-1 of one cell.

    Row k is ``SeedSequence((root, digest, lo + k)).generate_state(4,
    np.uint64)``, the seed of ``rep_seed``, computed for every row at
    once in uint32 arithmetic; replications from 2**32 on, whose number
    takes two words, go through SeedSequence itself.
    """
    if hi > 1 << 32:
        return np.array([np.random.SeedSequence((root, digest, r)).generate_state(4, np.uint64)
                         for r in range(lo, hi)])
    prefix = _words(root) + _words(digest)
    size = len(prefix) + 1
    entropy = np.zeros((max(size, 4), hi - lo), np.uint32)  # one column per replication
    entropy[: size - 1] = np.array(prefix, np.uint32)[:, None]
    entropy[size - 1] = np.arange(lo, hi, dtype=np.uint32)
    a = _A if size <= 15 else _powers(_INIT_A, _MULT_A, 17 + 4 * (size - 4))

    def hashmix(v, i, m):  # the pool's hash calls i..i+m-1, one per row
        v = (v ^ a[i : i + m]) * a[i + 1 : i + 1 + m]
        return v ^ (v >> 16)

    def mix(v, h):
        v = v * _MIX_L - h * _MIX_R
        return v ^ (v >> 16)

    # hash the first four words into the pool, mix each pool word into the
    # others, then each further word into all four; hash the pool out twice
    pool = hashmix(entropy[:4], 0, 4)
    for s in range(4):
        pool[_OTHERS[s]] = mix(pool[_OTHERS[s]], hashmix(pool[s], 4 + 3 * s, 3))
    for s in range(4, size):
        pool = mix(pool, hashmix(entropy[s], 16 + 4 * (s - 4), 4))
    v = (np.concatenate([pool, pool]) ^ _B[:8]) * _B[1:]
    v ^= v >> 16
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64)


def _chunk_states(root: int, digest: int, reps: int, chunk: int):
    """Yield (lo, hi, states) for the chunks lo..hi-1 of ``chunk`` replications
    of a cell of ``reps``: each chunk's rows of ``_rep_states``, derived
    SEED_BLOCK replications per call and sliced per chunk. Blocks need not
    align with chunks; a chunk that runs past the derived rows takes its rest
    from the next block."""
    block, start = np.empty((0, 4), np.uint64), 0  # block holds replications start..
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        while start + len(block) < hi:
            end = start + len(block)
            more = _rep_states(root, digest, end, min(end + SEED_BLOCK, reps))
            block, start = np.concatenate([block[lo - start :], more]), lo
        yield lo, hi, block[lo - start : hi - start]


class _Derived(ISeedSequence):
    """A seed sequence whose PCG64 state words (a row of ``_rep_states``) are known."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state  # PCG64 asks for its 4 uint64 words


def run_grid(
    scn: Scenario,
    models: list[ModelSpec],
    pis: list[float] | None,
    reps: int,
    seed: int = 0,
    keep_estimates: bool = False,
) -> MonteCarloReport:
    """Run every (model, pi) cell for ``reps`` replications each.

    Replication r of a pi's cells holds the data of
    ``draw(scn, rep_seed(seed, f"scenario={scn.id}|pi={pi}|n={scn.n}", r), pi)``,
    so results are reproducible bit for bit and independent of
    execution order. Every model is fitted on the replication's one
    dataset, so the cells of one pi are paired. Replications are drawn
    in chunks of about CHUNK_ROWS rows, but of at least CHUNK_MIN_REPS
    replications while they fit in 4·CHUNK_ROWS rows (``_chunk_reps``).
    The seeds of a cell are derived together, SEED_BLOCK replications
    per call (one call for any cell up to that size), and sliced per
    chunk. Each chunk is drawn at once (each transform of its law run
    once on the stacked raw variates, and the chunk validated once), and
    each model is fitted to a whole chunk in one stacked call that shares
    the chunk's centered covariates with the other models; the numbers
    are those of drawing and fitting each replication alone.
    Scenarios with covariate-dependent assignment ignore ``pis``.
    Before the first draw, ``seed`` and ``reps`` (integers, not bools or
    floats, stored as ``int``; seed non-negative, reps positive),
    ``models`` (not empty), every pi and, where the draws' covariate count is
    known (1 for a standard scenario, else the sampler's ``p``), every model's
    are checked; a sampler without ``p`` has its models checked at the first fit.
    Failed fits are excluded and counted per cell, by cause, in
    ``MonteCarloCell.failures``; a cell whose failure rate exceeds 1%
    raises, naming the causes. A cell with replications whose
    centered-variance correction was clamped at zero warns once.

    Returns
    -------
    MonteCarloReport
        Bias is measured against the scenario's exact effect,
        ``scn.beta_ate``.
    """
    reps, seed = _integer(reps, "reps"), _nonnegative(seed, "seed")
    if reps <= 0:
        msg = f"reps must be positive, got {reps}"
        raise ValueError(msg)
    if not models:
        msg = "at least one model is required"
        raise ValueError(msg)
    pi_list = [None] if scn.covariate_assignment else list(pis or [scn.pi])
    probs = [_assignment_pi(scn, pi) for pi in pi_list]
    known_p = 1 if scn.law is not None else getattr(scn.sampler, "p", None)
    if known_p is not None:
        for spec in models:
            _check_covariates(spec, known_p)

    family = scn.law.family if scn.law is not None else "gaussian"
    chunk = _chunk_reps(scn.n)
    fits = np.full((len(models), len(pi_list), reps, 2), np.nan)  # NaN: the fit failed
    clamped = np.zeros((len(models), len(pi_list)), dtype=int)
    failures = [[Counter() for _ in pi_list] for _ in models]
    for i, (pi, p) in enumerate(zip(pi_list, probs)):
        digest = _digest(f"scenario={scn.id}|pi={pi}|n={scn.n}")
        cols = None  # replication 0's covariate count, which a custom sampler must keep
        for lo, hi, states in _chunk_states(seed, digest, reps, chunk):
            stack = _draw_stack(scn, p, states, lo, cols)
            cols = stack.x.shape[-1]
            for m, spec in enumerate(models):
                res = _fit(spec, stack, family)
                fits[m, i, lo:hi, 0] = res.ate_hat
                fits[m, i, lo:hi, 1] = res.ate_se
                clamped[m, i] += int(res.clamped.sum())
                failures[m][i].update(e.cause for e in res.errors.values())
    cells = []
    for m, spec in enumerate(models):
        label = format_formula(spec)
        for i, pi in enumerate(pi_list):
            ests, ses = fits[m, i][~np.isnan(fits[m, i, :, 0])].T
            used = ests.size
            fail_rate = (reps - used) / reps
            key = f"scenario={scn.id}|model={label}|pi={pi}|n={scn.n}"
            causes = dict(sorted(failures[m][i].items()))
            if fail_rate > FAIL_RATE_LIMIT:
                why = ", ".join(f"{cause} {k}" for cause, k in causes.items())
                msg = f"cell {key} failed in {reps - used}/{reps} replications ({why})"
                raise EstimationError(msg)
            if clamped[m, i]:
                msg = (
                    f"centered-variance correction clamped at zero in "
                    f"{clamped[m, i]}/{reps} replications of cell {key}"
                )
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
            sd = float(ests.std(ddof=1)) if used > 1 else 0.0
            cells.append(
                MonteCarloCell(
                    scenario=scn.id,
                    model=label,
                    pi=pi,
                    n=scn.n,
                    reps=reps,
                    bias=float(ests.mean() - scn.beta_ate),
                    sd=sd,
                    mc_se=sd / float(np.sqrt(used)) if used else float("nan"),
                    fail_rate=fail_rate,
                    mean_se=float(ses.mean()) if used else None,
                    estimates=ests.copy() if keep_estimates else None,
                    failures=causes,
                )
            )
    return MonteCarloReport(cells, seed)


FIGURE1_PIS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def figure1_data(reps: int = 1000, seed: int = 0, n: int = 1000) -> MonteCarloReport:
    """Bias/SD grid for scenarios 1 and 2 over nine assignment probabilities.

    Three models per scenario: no adjustment, main effect only, and
    main effect plus interaction.
    """
    models = [named_spec("ANOVA", 1), named_spec("ANCOVA", 1), named_spec("ANHECOVA", 1)]
    cells: list[MonteCarloCell] = []
    for sid in (1, 2):
        report = run_grid(scenario(sid, n=n), models, list(FIGURE1_PIS), reps, seed)
        cells.extend(report.cells)
    return MonteCarloReport(cells, report.seed)


DID_LDV_CONFIGS = ("default", "unit-baseline", "zero-baseline")


def _did_ldv_sampler(config: str) -> GaussianArmSampler:
    # the baseline covariate's control and treated slopes and the control
    # noise scale; the default scale pins corr(Y0, Y(0)) at 0.7
    laws = {
        "default": (0.6, 0.8, float(np.sqrt((0.6 / 0.7) ** 2 - 0.61))),
        "unit-baseline": (1.0, 1.0, 0.6),
        "zero-baseline": (0.0, 0.0, 1.0),
    }
    if config not in laws:
        msg = f"unknown config {config!r}; expected one of {DID_LDV_CONFIGS}"
        raise ValueError(msg)
    l0, l1, s0 = laws[config]
    return GaussianArmSampler(
        sigma=np.eye(2), b0=1.0, b1=3.0,
        l0=np.array([l0, 0.5]), l1=np.array([l1, 0.2]), s0=s0, s1=1.0,
    )


def did_vs_ldv_experiment(
    reps: int = 10_000, seed: int = 0, n: int = 400, config: str = "default"
) -> MonteCarloReport:
    """Head-to-head gain-score comparison on a two-covariate population.

    The first covariate plays the baseline-outcome role. The default
    population correlates it with the control outcome at 0.7 and makes
    its true control-arm slope 0.6, so pinning that slope at 1 injects
    avoidable variance and the free-slope fit is strictly better.
    Both models are fitted on each replication's one dataset, and the
    kept estimates line up replication by replication when neither cell
    dropped one, for paired uncertainty checks.
    """
    scn = custom_scenario(_did_ldv_sampler(config), pi=0.5, n=n, id="did-ldv")
    models = [named_spec("DiD", 2), named_spec("LDV", 2)]
    report = run_grid(scn, models, None, reps, seed, keep_estimates=True)
    for cell, name in zip(report.cells, ("DiD", "LDV")):
        cell.model = name
    return report
