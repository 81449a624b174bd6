"""List the lines of ``src/linadjust`` that no test runs.

Usage, from the repository root::

    python tools/uncovered.py [pytest arguments]    # default: tests

A line tracer (``sys.settrace``, and ``threading.settrace`` for threads
the tests start) records every line executed in ``src/linadjust/*.py``
while ``pytest.main`` runs the tests in this process. The executable
lines are those the compiled modules' code objects map instructions to
(``co_lines``), less the ``def``, ``class`` and decorator lines, which
run at import whatever the tests do. Each such line that never ran is
printed as ``module.py:line`` (a run of lines as ``module.py:first-last``).
Code reached only through a subprocess, such as a test that runs the CLI
with ``python -m``, is not seen and is listed as not run.

Only the standard library and pytest are used. On a 2-core x86-64 host
with Python 3.11 a traced run took 66 s where the untraced suite took
44 s. The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linadjust"
_HEADS = ("def ", "async def ", "class ", "@")


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that its code objects run, less def, class and
    decorator lines."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    lines: set[int] = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {n for n in lines if not source[n - 1].lstrip().startswith(_HEADS)}


def _runs(numbers: list[int]) -> list[list[int]]:
    """Sorted line numbers as [first, last] runs of consecutive lines."""
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return runs


def trace(fn):
    """Run fn() under a line tracer limited to ``src/linadjust/*.py``, in this
    thread and the threads it starts. Returns fn's result and the lines run,
    as {file name: line numbers}."""
    ran: dict[str, set[int]] = {str(p): set() for p in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):  # trace only the frames of the package's files
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def report(ran: dict[str, set[int]]) -> None:
    """Print the executable lines of each traced file that did not run, then
    their count."""
    total = missed = 0
    for name in sorted(ran):
        path = Path(name)
        lines = executable_lines(path)
        todo = sorted(lines - ran[name])
        total, missed = total + len(lines), missed + len(todo)
        for first, last in _runs(todo):
            print(f"{path.name}:{first}" + (f"-{last}" if last > first else ""))
    print(f"{missed} of {total} executable lines not run")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    # for the tests that run the CLI in a subprocess, which the tracer does not see
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                             os.environ.get("PYTHONPATH")]))
    status, ran = trace(lambda: pytest.main(args or [str(ROOT / "tests")]))
    report(ran)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
