"""linadjust end-to-end benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload mc-n200 --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop for ``--seconds`` and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. An untraced run
splits its timed phase over WORKERS fresh interpreters, one after
another, each of which also times its own set-up; the parent pools
their outputs and checks them. A traced run stays in one process. A
fuller record (environment, checks, per-kind call times, set-up
samples) goes to ``bench/out/``. The program is imported from ``src/``
of the checkout; nothing needs to be installed. Exit code 0 means every
check passed. See bench/README.md.
"""

from __future__ import annotations

import os

# One thread of load: BLAS must not fan out over the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedTrack

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKERS = 4
WORKER_TIMEOUT_S = 150
CYCLE_STRIDE = 1_000_000  # worker i numbers its cycles from i * CYCLE_STRIDE


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def import_program():
    """Import linadjust from this checkout's src/, never from an installed copy."""
    if not (SRC / "linadjust" / "__init__.py").is_file():
        raise BenchError(f"no linadjust package under {SRC}")
    sys.path.insert(0, str(SRC))
    import linadjust
    import linadjust.cli  # noqa: F401  (loads numpy and scipy: part of set-up)

    if not Path(linadjust.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"linadjust was imported from {linadjust.__file__}, not {SRC}")
    return linadjust


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
    }


@dataclass
class Phase:
    """What one closed-loop phase did; in a traced run, every second cycle is traced."""

    speed: SpeedTrack
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    call_start: list[float] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)
    call_kind: list[str] = field(default_factory=list)
    call_cycle: list[int] = field(default_factory=list)
    cycle_traced: list[bool] = field(default_factory=list)
    traced_attempted: int = 0
    csv_rows: int = 0  # CSV rows read in traced cycles
    csv_spans: list[int] = field(default_factory=list)  # their root spans

    def ref_call_s(self) -> list[float]:
        """Each call's time in reference seconds (see speed.py)."""
        return [self.speed.scale(t, s) for t, s in zip(self.call_start, self.call_s)]

    def ref_cycle_s(self) -> list[float]:
        out = [0.0] * self.cycles
        for k, s in zip(self.call_cycle, self.ref_call_s()):
            out[k] += s
        return out


def run_phase(wl, seconds: float, min_cycles: int, tracer=None, first_cycle: int = 0) -> Phase:
    """Repeat whole cycles until ``seconds`` have passed and ``min_cycles`` are done.

    The reference kernel runs between calls, never inside one. With a
    tracer, odd cycles run with the wrappers installed and even cycles
    without, so both halves see the same drift of the machine and their
    ratio gives the tracing overhead.
    """
    ph = Phase(SpeedTrack(wl.kernel))
    clock = time.perf_counter
    t0 = clock()
    k = first_cycle
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        for slot, call in enumerate(wl.cycle(k)):
            ph.speed.sample()
            root = len(tracer) if traced else -1
            err = None
            t = clock()
            try:
                out = call.run()
            except Exception:  # a failed operation, not a benchmark fault
                out, err = None, traceback.format_exc(limit=3)
            ph.call_s.append(clock() - t)
            ph.call_start.append(t)
            ph.call_kind.append(call.kind)
            ph.call_cycle.append(k - first_cycle)
            ph.attempted += call.ops
            ph.failed += wl.record(call, k, slot, out, err)
            if traced:
                ph.traced_attempted += call.ops
                if call.rows:
                    ph.csv_rows += call.rows
                    ph.csv_spans.append(root)
        ph.cycle_traced.append(traced)
        if traced:
            tracer.uninstall()
        k += 1
        ph.cycles += 1
        if clock() - t0 >= seconds and ph.cycles >= min_cycles:
            break
    ph.speed.sample(force=True)
    ph.elapsed_s = clock() - t0
    return ph


def workdir_for(pid: int) -> Path:
    path = OUT / f"tmp-{pid}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def per_kind(kinds: list[str], wall: list[float], ref: list[float]) -> dict:
    out = {}
    for kind in dict.fromkeys(kinds):
        mine = [i for i, k in enumerate(kinds) if k == kind]
        out[kind] = {
            "calls": len(mine),
            "p50_ms": statistics.median(wall[i] for i in mine) * 1e3,
            "p50_ref_ms": statistics.median(ref[i] for i in mine) * 1e3,
            "total_s": sum(wall[i] for i in mine),
        }
    return out


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    for hidden in ("--worker", "--min-cycles"):
        parser.add_argument(hidden, type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--worker-out", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workdir = workdir_for(os.getpid())
    try:
        if args.worker is not None:
            return worker(args, wl, workdir)
        if args.trace:
            return traced(args, wl, workdir)
        return untraced(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def worker(args, wl, workdir: Path) -> int:
    """One slice of an untraced run, in a fresh interpreter spawned at ``--spawned``.

    Set-up runs from spawn to ready, less the time spent writing inputs,
    and is scaled by the kernel median of the slice that follows it.
    """
    t = time.monotonic()
    wl.make_inputs(Path(args.inputs))  # the parent's directory: same paths in every output
    wl.make_warmup_inputs(workdir)
    excluded = time.monotonic() - t
    wl.warm_up()
    setup_wall = time.monotonic() - args.spawned - excluded
    ph = run_phase(wl, args.seconds, args.min_cycles, first_cycle=args.worker * CYCLE_STRIDE)
    payload = {
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_wall * ph.speed.factor(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "cycles": ph.cycles,
        "elapsed_s": ph.elapsed_s,
        "call_s": ph.call_s,
        "ref_call_s": ph.ref_call_s(),
        "call_kind": ph.call_kind,
        "ref_per_wall": ph.speed.factor(),
        "kernel_samples": len(ph.speed.took),
        "state": wl.state(),
    }
    with open(args.worker_out, "wb") as fh:
        pickle.dump(payload, fh)
    return 0


def spawn_worker(args, index: int, workers: int, min_cycles: int, workdir: Path) -> dict:
    out = workdir / f"worker{index}.pkl"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / workers),
           "--worker", str(index), "--min-cycles", str(math.ceil(min_cycles / workers)),
           "--worker-out", str(out), "--inputs", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker {index} failed ({proc.returncode}): {proc.stderr.strip()[-1500:]}")
    with open(out, "rb") as fh:
        return pickle.load(fh)  # written by the worker just spawned


def untraced(args, wl, workdir: Path) -> int:
    """End-to-end metrics, pooled over WORKERS fresh processes."""
    wl.make_inputs(workdir)
    wl.prepare()
    n = 2 if args.tiny else WORKERS
    parts = [spawn_worker(args, i, n, wl.min_cycles, workdir) for i in range(n)]
    for part in parts:
        wl.absorb(part["state"])
    checks, check_failed = wl.checks()
    attempted = sum(p["attempted"] for p in parts)
    ok_ops = attempted - sum(p["failed"] for p in parts)
    ref_calls = [s for p in parts for s in p["ref_call_s"]]
    wall_calls = [s for p in parts for s in p["call_s"]]
    kinds = [k for p in parts for k in p["call_kind"]]
    setup_ref = [p["setup_ref_s"] for p in parts]
    setup_wall = [p["setup_wall_s"] for p in parts]
    metrics = {
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "ops_per_s": {"value": ok_ops / sum(ref_calls), "unit": "1/s"},
        "call_p50_ms": {"value": statistics.median(ref_calls) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in parts), "unit": "MB"},
    }
    record = {
        "wall_clock": {
            "setup_s": statistics.median(setup_wall),
            "ops_per_s": ok_ops / sum(wall_calls),
            "call_p50_ms": statistics.median(wall_calls) * 1e3,
        },
        "workers": [
            {k: p[k] for k in ("setup_wall_s", "setup_ref_s", "rss_mb", "attempted", "failed",
                               "cycles", "elapsed_s", "ref_per_wall", "kernel_samples")}
            for p in parts
        ],
        "per_kind": per_kind(kinds, wall_calls, ref_calls),
    }
    failed = min(attempted, sum(p["failed"] for p in parts) + check_failed)
    return finish(args, record, checks, attempted, failed, metrics)


def traced(args, wl, workdir: Path) -> int:
    """Per-layer metrics from one process whose odd cycles are traced."""
    from tracing import MODULES, LayerStats, Tracer, layer_metrics, unit_of

    wl.make_inputs(workdir)
    wl.make_warmup_inputs(workdir)
    tracer = Tracer()
    tracer.install()  # so the warm-up's truth computation is timed too
    wl.warm_up()
    tracer.uninstall()
    lo = len(tracer)
    ph = run_phase(wl, args.seconds, max(2, wl.min_cycles), tracer)
    hi = len(tracer)
    checks, check_failed = wl.checks()

    traced_call = [ph.cycle_traced[k] for k in ph.call_cycle]
    ref_cycles = ph.ref_cycle_s()
    mean = [statistics.mean(c for c, tr in zip(ref_cycles, ph.cycle_traced) if tr == flag)
            for flag in (True, False)]
    stats = LayerStats(tracer, lo, hi)
    csv_self = sum(stats.span_self_s(i) for i in ph.csv_spans)
    wall = sum(s for s, tr in zip(ph.call_s, traced_call) if tr)
    values = layer_metrics(
        stats, ph.traced_attempted, wall, (mean[0] / mean[1] - 1.0) * 100.0,
        ph.csv_rows, csv_self, ph.speed.factor(),
    )
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    record = {
        "absent_layers": tracer.absent,
        "layer_self_sum_share": sum(values[f"{m}.self_share"] for m in MODULES),
        "spans": {"count": hi - lo, "warm_up": lo},
        "cycles": ph.cycles,
        "ref_cycle_s": ref_cycles,
        "cycle_traced": ph.cycle_traced,
        "per_kind": per_kind(ph.call_kind, ph.call_s, ph.ref_call_s()),
    }
    failed = min(ph.attempted, ph.failed + check_failed)
    return finish(args, record, checks, ph.attempted, failed, metrics)


def finish(args, record: dict, checks, attempted: int, failed: int, metrics: dict) -> int:
    """Write the run record, report failed checks, print the result line."""
    correct = all(c.ok for c in checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        **record,
        "checks": [c.as_dict() for c in checks],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for c in checks:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
