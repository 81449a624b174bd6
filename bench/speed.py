"""Host-speed tracking for the benchmark's timings.

The machine this benchmark was built on runs the same code at speeds
that differ by up to 2x from one second to the next and from one minute
to the next (other tenants of the host), and it has no hardware counters
to count instructions instead. So every timing is also expressed in
reference seconds: the benchmark runs a small fixed kernel of its own
(never the program) between calls, and a call's wall time is scaled by
the kernel's reference time over its time measured right before and
after the call. A call that runs while the host is slow is slowed about
as much as the kernel, so the scaled time stays put while the program
stays the same, and moves when the program changes. Raw wall times are
kept in the run record.

Each workload uses the kernel whose mix of work is closest to its own:
a host slowdown does not hit Python parsing and small numpy calls alike.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import time
from bisect import bisect_right

import numpy as np

SAMPLE_GAP_S = 0.02

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((200, 3))
_TALL = _rng.standard_normal((2000, 8))
_LINE = ",".join(repr(v) for v in _SMALL[0].tolist() * 4)
_RECORD = {"a": [1.5, 2.5], "b": "x" * 20, "c": {"d": 3}}
_CSV = "\n".join(",".join(repr(v) for v in row) for row in _rng.standard_normal((40, 6)).tolist())


def _cli() -> None:
    """An argparse parser with subcommands, CSV rows to floats, small SVDs, JSON (analysis-cli)."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for name in ("one", "two", "three"):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True)
        p.add_argument("--pi", type=float)
        p.add_argument("--format", choices=("text", "json"), default="text")
    parser.parse_args(["two", "--model", "1 + A", "--pi", "0.3", "--format", "json"])
    rows = [[float(v) for v in row] for row in csv.reader(io.StringIO(_CSV))]
    np.linalg.svd(np.asarray(rows), full_matrices=False)
    np.linalg.svd(_SMALL, full_matrices=False)
    json.dumps(_RECORD, indent=2)


def _monte_carlo() -> None:
    """A seeded generator, draws, a design, an SVD solve and a sandwich (Monte Carlo)."""
    for i in range(6):
        g = np.random.default_rng(np.random.SeedSequence((7, 123456789, i)))
        x = g.normal(2.0, 1.0, 200) - 2.0
        a = (g.random(200) < 0.3).astype(float)
        z = np.column_stack([np.ones(200), a, x, a * x])
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        score = z * (x - z @ (vt.T @ ((u.T @ x) / s)))[:, None]
        score.T @ score
        _TALL.T @ _TALL
        [float(v) for v in _LINE.split(",")]
        json.dumps(_RECORD)


# kernel name -> (body, about its time in seconds between calls on the
# reference host: 2-core Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4,
# one BLAS thread). The reference time is a unit: a reference second
# reads about like a wall second there.
KERNELS = {"cli": (_cli, 0.0010), "monte-carlo": (_monte_carlo, 0.0014)}


def kernel(name: str) -> float:
    """Run one reference kernel once; returns its wall time in seconds."""
    body = KERNELS[name][0]
    t = time.perf_counter()
    body()
    return time.perf_counter() - t


class SpeedTrack:
    """Kernel samples taken between calls, and the scaling they give."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ref_s = KERNELS[name][1]
        self.at: list[float] = []
        self.took: list[float] = []
        self._last_end = -1e9

    def sample(self, force: bool = False) -> None:
        """Run the kernel if SAMPLE_GAP_S has passed since the last sample."""
        now = time.perf_counter()
        if force or now - self._last_end >= SAMPLE_GAP_S:
            self.took.append(kernel(self.name))
            self.at.append(now)
            self._last_end = time.perf_counter()

    def local(self, t: float) -> float:
        """Mean kernel time of the samples just before and just after time ``t``."""
        i = bisect_right(self.at, t)
        before = self.took[max(i - 1, 0)]
        after = self.took[min(i, len(self.took) - 1)]
        return 0.5 * (before + after)

    def scale(self, start: float, wall_s: float) -> float:
        """Reference seconds of a call that began at ``start`` and took ``wall_s``."""
        return wall_s * self.ref_s / self.local(start)

    def factor(self) -> float:
        """Run-wide reference seconds per wall second (median kernel)."""
        return self.ref_s / float(np.median(self.took))
