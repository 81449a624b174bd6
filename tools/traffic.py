"""List the lines of ``src/linadjust`` that no benchmark workload runs.

Usage, from the repository root::

    python tools/traffic.py

It imports ``linadjust.cli``, as a benchmark worker does before its
set-up, and then runs, in this process, what a worker runs for each
workload of ``bench/workloads.py``: the workload's inputs, its warm-up
inputs, ``prepare``, ``warm_up`` and the calls of CYCLES cycles, at the
benchmark's full sizes and seed SEED. All of it runs under the line tracer
of ``tools/uncovered.py``, and the executable lines that no workload ran
are printed as that tool prints them. A line listed here carries no
benchmark traffic, so a claim that a change speeds or slows the benchmark
cannot rest on it, and a claim that a path is cold can be checked.

``bench/`` is only imported, never written; a workload's input files go to a
temporary directory. The workloads' output checks are not run. It uses
only the standard library and what ``tools/uncovered.py`` and
``bench/workloads.py`` import; pytest does not collect it. It took 3 s on
a 2-core x86-64 host with Python 3.11.
"""

from __future__ import annotations

import importlib
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from uncovered import ROOT, SRC, report, trace

sys.path.insert(0, str(SRC.parent))
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # no __pycache__ under bench/

import workloads  # noqa: E402

CYCLES = 4  # cycles of each workload after its warm-up
SEED = 1


@contextmanager
def prepared(name: str, seed: int = SEED, tiny: bool = False):
    """A workload of run seed ``seed`` as a benchmark worker has it before its
    first cycle: inputs made in a temporary directory, which lasts while the
    block runs, then prepared and warmed up."""
    wl = workloads.WORKLOADS[name](seed, tiny)
    with tempfile.TemporaryDirectory() as tmp:
        inputs, work = Path(tmp, "inputs"), Path(tmp, "work")
        inputs.mkdir()
        work.mkdir()
        wl.make_inputs(inputs)
        wl.make_warmup_inputs(work)
        wl.prepare()
        wl.warm_up()
        yield wl


def run_workload(name: str) -> None:
    """Run a workload's set-up and CYCLES cycles of calls, as a benchmark
    worker does."""
    with prepared(name) as wl:
        for k in range(CYCLES):
            for call in wl.cycle(k):
                call.run()


def run_all() -> None:
    importlib.import_module("linadjust.cli")
    for name in workloads.WORKLOADS:
        run_workload(name)


if __name__ == "__main__":
    report(trace(run_all)[1])
