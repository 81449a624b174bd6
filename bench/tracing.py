"""Span tracer for the benchmark's traced runs.

The tracer replaces linadjust's public functions at the module
attributes through which other modules (and the benchmark) call them,
so every call records a span: layer name, start, end and the span that
was open when it began. Spans stay in flat arrays in memory until the
run ends; self times and counts are derived from them afterwards.
Nothing under ``src/`` is modified, and an untraced run wraps nothing.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module whose attribute is replaced, attribute, layer name). The
# layer name starts with the module that defines the function, which is
# the module its self time is charged to.
TARGETS = (
    ("linadjust.sim", "run_grid", "sim.run_grid"),
    ("linadjust.sim", "rep_seed", "sim.rep_seed"),
    ("linadjust.sim", "draw", "sim.draw"),
    ("linadjust.sim", "Dataset", "model.Dataset"),
    ("linadjust.sim", "fit_ols", "estimate.fit_ols"),
    ("linadjust.sim", "fit_weighted", "estimate.fit_weighted"),
    ("linadjust.sim", "fit_poisson_glm", "estimate.fit_poisson_glm"),
    ("linadjust.sim", "approximate_beta_ate", "population.approximate_beta_ate"),
    ("linadjust.estimate", "build_design", "model.build_design"),
    ("linadjust.population", "solve_population", "population.solve_population"),
    ("linadjust.dominance", "parse_formula", "model.parse_formula"),
    ("linadjust.dominance", "check_known_mean", "dominance.check"),
    ("linadjust.dominance", "check_centered", "dominance.check"),
    ("linadjust.cli", "main", "cli.main"),
    ("linadjust.cli", "Dataset", "model.Dataset"),
    ("linadjust.cli", "parse_formula", "model.parse_formula"),
    ("linadjust.cli", "fit_ols", "estimate.fit_ols"),
    ("linadjust.cli", "fit_weighted", "estimate.fit_weighted"),
    ("linadjust.cli", "fit_poisson_glm", "estimate.fit_poisson_glm"),
    ("linadjust.cli", "population_from_dict", "population.population_from_dict"),
    ("linadjust.cli", "solve_population", "population.solve_population"),
    ("linadjust.cli", "asymptotic_variance_known_mean", "population.asymptotic_variance"),
    ("linadjust.cli", "asymptotic_variance_centered", "population.asymptotic_variance"),
    ("linadjust.cli", "variance_gap_theorem2", "population.variance_gap_theorem2"),
    ("linadjust.cli", "check_known_mean", "dominance.check"),
    ("linadjust.cli", "check_centered", "dominance.check"),
    ("linadjust.cli", "table1", "dominance.table1"),
    ("linadjust.cli", "corollaries", "dominance.corollaries"),
)

MODULES = ("sim", "model", "estimate", "population", "dominance", "cli")

# Layers whose result carries a ``converged`` flag worth counting.
_CONVERGENCE_LAYERS = ("estimate.fit_poisson_glm",)


class Tracer:
    """Collects spans from wrapped module attributes.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    originals; a target attribute that no longer exists is recorded in
    ``absent`` instead of failing the run.
    """

    def __init__(self) -> None:
        self.layers: list[str] = sorted({t[2] for t in TARGETS})
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.not_converged = array("q")
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, fn, layer: str):
        nid = self._layer_id[layer]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns
        flags = self.not_converged if layer in _CONVERGENCE_LAYERS else None

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if flags is not None and not getattr(result, "converged", True):
                flags.append(i)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self) -> None:
        if self._originals:
            return
        self.absent = []
        for modname, attr, layer in TARGETS:
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                self.absent.append(f"{modname}.{attr}")
                continue
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the layer-name table, as one .npz file."""
        np.savez(path, layers=np.array(self.layers), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time (duration minus child spans), in ns."""
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - child


class LayerStats:
    """Counts, inclusive and self time per layer over a range of spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        spans = tracer.spans()
        dur, self_ns = self_times(spans)
        sel = slice(lo, hi)
        names = spans["name"][sel]
        k = len(tracer.layers)
        self.layers = tracer.layers
        self.calls = np.bincount(names, minlength=k)
        self.total_ns = np.bincount(names, weights=dur[sel], minlength=k)
        self.self_ns = np.bincount(names, weights=self_ns[sel], minlength=k)
        self._self = self_ns
        nc = np.frombuffer(tracer.not_converged, dtype=np.int64)
        nc = nc[(nc >= lo) & (nc < hi)]
        self.not_converged = np.bincount(spans["name"][nc], minlength=k)
        all_names = spans["name"]
        self.all_total_ns = np.bincount(all_names, weights=dur, minlength=k)

    def _i(self, layer: str) -> int:
        return self.layers.index(layer)

    def count(self, layer: str) -> int:
        return int(self.calls[self._i(layer)])

    def not_converged_count(self, layer: str) -> int:
        return int(self.not_converged[self._i(layer)])

    def total_s(self, layer: str) -> float:
        return float(self.total_ns[self._i(layer)]) / 1e9

    def self_s(self, layer: str) -> float:
        return float(self.self_ns[self._i(layer)]) / 1e9

    def process_total_s(self, layer: str) -> float:
        """Inclusive time over every recorded span, warm-up included."""
        return float(self.all_total_ns[self._i(layer)]) / 1e9

    def span_self_s(self, index: int) -> float:
        return float(self._self[index]) / 1e9

    def module_self_s(self, module: str) -> float:
        mask = [name.split(".", 1)[0] == module for name in self.layers]
        return float(self.self_ns[mask].sum()) / 1e9


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (
        ("us_per_op", "us"), ("us_per_call", "us"), ("ms_per_call", "ms"),
        ("calls_per_op", "count"), ("_per_call", "count"), ("rows_per_s", "rows/s"),
        ("_share", "fraction"), ("_pct", "%"), ("_s", "s"),
    ):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")


def layer_metrics(
    stats: LayerStats,
    ops: int,
    wall_s: float,
    overhead_pct: float,
    csv_rows: int,
    csv_self_s: float,
    ref_per_wall: float,
) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the traced cycles.

    Times are in reference seconds: wall times scaled by the run's
    ``ref_per_wall`` (see speed.py); shares are ratios of wall times.
    A layer that was not called reads 0; ``Tracer.absent`` tells a layer
    that was never called apart from one whose wrapped name is gone.
    """
    us = 1e6 * ref_per_wall

    def us_per_call(layer: str, self_time: bool = False) -> float:
        t = stats.self_s(layer) if self_time else stats.total_s(layer)
        return _per(t * us, stats.count(layer))

    def calls_per_op(layer: str) -> float:
        return _per(stats.count(layer), ops)

    m: dict[str, float] = {
        "sim.run_grid.self_us_per_op": _per(stats.self_s("sim.run_grid") * us, ops),
        "sim.rep_seed.us_per_call": us_per_call("sim.rep_seed"),
        "sim.rep_seed.calls_per_op": calls_per_op("sim.rep_seed"),
        "sim.draw.self_us_per_call": us_per_call("sim.draw", self_time=True),
        "sim.draw.calls_per_op": calls_per_op("sim.draw"),
        "sim.truth_s": stats.process_total_s("population.approximate_beta_ate") * ref_per_wall,
        "model.Dataset.us_per_call": us_per_call("model.Dataset"),
        "model.Dataset.calls_per_op": calls_per_op("model.Dataset"),
        "model.build_design.us_per_call": us_per_call("model.build_design"),
        "model.build_design.calls_per_op": calls_per_op("model.build_design"),
        "model.parse_formula.us_per_call": us_per_call("model.parse_formula"),
    }
    for fit in ("fit_ols", "fit_weighted", "fit_poisson_glm"):
        m[f"estimate.{fit}.self_us_per_call"] = us_per_call(f"estimate.{fit}", self_time=True)
    m["estimate.fit_poisson_glm.not_converged_per_call"] = _per(
        stats.not_converged_count("estimate.fit_poisson_glm"),
        stats.count("estimate.fit_poisson_glm"),
    )
    m["population.solve_population.us_per_call"] = us_per_call("population.solve_population")
    m["population.solve_population.calls_per_op"] = calls_per_op("population.solve_population")
    m["population.asymptotic_variance.self_us_per_call"] = us_per_call(
        "population.asymptotic_variance", self_time=True
    )
    m["dominance.check.us_per_call"] = us_per_call("dominance.check")
    m["dominance.table1.us_per_call"] = us_per_call("dominance.table1")
    m["cli.main.self_ms_per_call"] = us_per_call("cli.main", self_time=True) / 1e3
    m["cli.csv_rows_per_s"] = _per(csv_rows, csv_self_s * ref_per_wall)
    for module in MODULES:
        m[f"{module}.self_share"] = _per(stats.module_self_s(module), wall_s)
    m["trace.overhead_pct"] = overhead_pct
    return m
