"""Print where the benchmark's own calls spend their time in the fit kernel, the
draw and the CLI, stage by stage, how the kernel routes their fits, how fast
the CLI reads its CSVs, and the minor page faults of every call kind.

Usage, from the repository root::

    python tools/kernel_layers.py [--repeat 30] [--cycles 20] [--seed 7]

Every input comes from ``bench/workloads.py`` at full size and run seed
``--seed``, set up as ``tools/traffic.py`` sets it up. One cycle of each
workload runs with RECORDED (``sim._fit``, ``estimate._fit``,
``sim._rep_states``, ``sim._draw_stack``) wrapped to log each call's
arguments and result under the call kind that made it (``record``). The
tables replay those calls, tail chunks included, in µs per call of a kind
(median over ``--repeat`` passes after one that warms up):

- stages: the recorded fits, each pass on fresh ``_Stack``s of the recorded
  samples, split by TIMED into the self time of design (``_design``,
  ``_Stack.centered``), gram (``_solve`` itself: ZᵀWZ and the routing), eigh,
  solve (``_gram_solve``, ``_svd_solve``), irls (``_irls`` itself: a Poisson
  fit's closed-form start and its cheap Newton steps, ``_newton`` and
  ``_poisson_mean``; its least-squares start and its routed steps are
  ``_solve`` calls, so in gram, eigh and solve), influence (``_influence``), ate
  row (the rest of ``_ate_var``), penalty (``_Stack.sigma``, ``_penalized``)
  and fit (``_fit`` itself: the residual, the arms and the failed rows). No
  recorded fit forms the whole covariance U·Uᵀ: ``run_grid`` does not ask
  for it, and ``estimate`` commands print none;
- draw: the recorded ``_rep_states`` (seeds) and ``_draw_stack`` calls, split
  into rngs (the generators and the stack), fills (the rest of
  ``_draw_chunk``), observe (``_observe``) and check (``_check_samples``);
- routes: per call kind and model, quantiles of each sample's κ = s_max/s_min
  in its final solve (a Poisson fit's routed step at its reported
  coefficients) and the shares of the Gram route at κ < 10 and at
  κ < GRAM_RTOL^-1/2, and of the SVD, which also takes the samples that fail;
- cli: the ``check``, ``compare`` and ``table1`` commands of an
  ``analysis-cli`` cycle, replayed through ``cli.main``, split into parse
  (``ArgumentParser.parse_known_args``, the full parser's and a command's),
  verdicts (``check_known_mean`` and ``check_centered``, called by ``cli``
  or by ``dominance.table1`` and ``corollaries``), render (``cli._json``) and
  body (the rest of ``main``: the command itself and the write of its report);
- reads: ms per read of each of ``analysis-cli``'s two CSVs by
  ``cli._read_dataset``, beside ``np.loadtxt`` on the same lines held in
  memory, the parse floor the reader is measured against;
- faults: each workload in a fresh interpreter, as a benchmark worker runs it
  (set-up, then ``--cycles`` cycles, unwrapped): minor page faults
  (``resource.getrusage``) and ms per call kind.

Like ``bench/run.py`` it runs BLAS on one thread; ``bench/`` is only imported.
It uses the standard library, numpy and what ``tools/traffic.py`` imports.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # one thread of BLAS, as bench/run.py sets it before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402
from traffic import prepared, workloads  # noqa: E402

from linadjust import cli, dominance, estimate, sim  # noqa: E402
from linadjust.estimate import GRAM_RTOL  # noqa: E402
from linadjust.model import format_formula  # noqa: E402

STAGES = ("design", "gram", "eigh", "solve", "irls", "influence", "ate row", "penalty", "fit")
TIMED = (  # (owner, attribute, stage)
    (estimate, "_design", "design"),
    (estimate._Stack, "centered", "design"),
    (estimate, "_solve", "gram"),
    (np.linalg, "eigh", "eigh"),
    (estimate, "_gram_solve", "solve"),
    (estimate, "_svd_solve", "solve"),
    (estimate, "_irls", "irls"),
    (estimate, "_influence", "influence"),
    (estimate, "_ate_var", "ate row"),
    (estimate._Stack, "sigma", "penalty"),
    (estimate, "_penalized", "penalty"),
    (estimate, "_fit", "fit"),
)
DRAW_STAGES = ("seeds", "rngs", "fills", "observe", "check")
DRAW_TIMED = (
    (sim, "_rep_states", "seeds"),
    (sim, "_draw_stack", "rngs"),
    (sim, "_draw_chunk", "fills"),
    (sim, "_observe", "observe"),
    (sim, "_check_samples", "check"),
)
CLI_STAGES = ("parse", "verdicts", "body", "render")
CLI_TIMED = (
    (argparse.ArgumentParser, "parse_known_args", "parse"),
    (cli, "check_known_mean", "verdicts"),
    (cli, "check_centered", "verdicts"),
    (dominance, "check_known_mean", "verdicts"),
    (dominance, "check_centered", "verdicts"),
    (cli, "_json", "render"),
    (cli, "main", "body"),
)
CLI_KINDS = ("check", "compare", "table1")
RECORDED = ((sim, "_fit"), (estimate, "_fit"), (sim, "_rep_states"), (sim, "_draw_stack"))
QUANTILES = (0.0, 0.5, 0.9, 1.0)


@contextmanager
def patched(table):
    """Each (owner, attribute, wrap) of ``table``: the attribute is ``wrap(attribute)`` in the block."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in table]
    for (owner, name, fn), (_, _, wrap) in zip(saved, table):
        setattr(owner, name, wrap(fn))
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


class Layers:
    """Self time per stage, in ns, of the functions its timers wrap."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)
        self._children: list[int] = []

    def wrap(self, stage: str, fn):
        """``fn``, adding its self time to ``stage``."""

        def timed(*args, **kwargs):
            self._children.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self.ns[stage] += dt - self._children.pop()
                if self._children:
                    self._children[-1] += dt

        return timed


@dataclass
class Traffic:
    """One cycle of the workloads' kernel calls: the ``calls`` per cycle of each call
    kind ("workload kind"), and per call kind the (attribute, arguments, keyword
    arguments, result) of each recorded call, in order."""

    calls: Counter
    log: dict[str, list[tuple]]

    def of(self, name: str) -> dict[str, list[tuple]]:
        """Per call kind that made any, the (args, kwargs, result) of each call of ``name``."""
        out = {kind: [(a, kw, r) for n, a, kw, r in log if n == name] for kind, log in self.log.items()}
        return {kind: calls for kind, calls in out.items() if calls}


def record(wls) -> Traffic:
    """Run cycle 0 of each prepared workload with RECORDED logged."""
    tr, kind = Traffic(Counter(), defaultdict(list)), ""

    def logged(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            tr.log[kind].append((name, args, kwargs, out))
            return out

        return recorded

    table = [(owner, name, partial(logged, name)) for owner, name in RECORDED]
    with patched(table), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped standard error does not matter here
        for wl in wls:
            for call in wl.cycle(0):
                kind = f"{wl.name} {call.kind}"
                tr.calls[kind] += 1
                call.run()
    return tr


def replay(tr: Traffic, title: str, stages, timed, runs, repeat: int) -> dict[str, dict[str, float]]:
    """Per call kind of ``runs`` (kind: its replay), µs per call of each stage of
    ``timed`` and of their total, median over ``repeat`` replays after one that
    warms up; printed under ``title`` and returned."""
    rows = {}
    for kind, run in runs.items():
        samples = defaultdict(list)
        for _ in range(repeat + 1):
            layers = Layers()
            with warnings.catch_warnings(), patched([(o, n, partial(layers.wrap, s)) for o, n, s in timed]):
                warnings.simplefilter("ignore")
                run()
            for stage, ns in (*layers.ns.items(), ("total", sum(layers.ns.values()))):
                samples[stage].append(ns / 1e3 / tr.calls[kind])
        rows[kind] = {stage: statistics.median(us[1:]) for stage, us in samples.items()}
    print(f"\n{title}, µs per call (median of {repeat})")
    print(f"{'call kind':<24} {'calls':>5} " + " ".join(f"{s:>9}" for s in (*stages, "total")))
    for kind, row in rows.items():
        cells = " ".join(f"{row[s]:9.0f}" if s in row else f"{'-':>9}" for s in (*stages, "total"))
        print(f"{kind:<24} {tr.calls[kind]:>5} {cells}")
    return rows


def stage_table(tr: Traffic, repeat: int) -> dict[str, dict[str, float]]:
    def run(fits):
        fresh = {}  # a fresh stack per recorded stack, shared by its fits as the call shared it
        for (spec, st, *args), kwargs, _ in fits:
            if id(st) not in fresh:
                fresh[id(st)] = estimate._Stack(st.a, st.x, st.y, st.w)
            estimate._fit(spec, fresh[id(st)], *args, **kwargs)

    runs = {kind: (lambda f=fits: run(f)) for kind, fits in tr.of("_fit").items()}
    return replay(tr, "Self time per stage of the recorded fits", STAGES, TIMED, runs, repeat)


def draw_table(tr: Traffic, repeat: int) -> dict[str, dict[str, float]]:
    seeds, draws = tr.of("_rep_states"), tr.of("_draw_stack")

    def run(kind):
        for args, _, _ in seeds[kind]:
            sim._rep_states(*args)
        for args, _, _ in draws[kind]:
            sim._draw_stack(*args)

    runs = {kind: (lambda k=kind: run(k)) for kind in draws}
    return replay(tr, "Self time per step of the recorded draws", DRAW_STAGES, DRAW_TIMED, runs, repeat)


def cli_table(tr: Traffic, wl, repeat: int) -> dict[str, dict[str, float]]:
    """``analysis-cli``'s commands of CLI_KINDS, by kind, replayed through ``cli.main``."""

    def run(argvs):
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)

    runs = {f"{wl.name} {kind}": (lambda k=kind: run([c.argv for c in wl.commands if c.kind == k]))
            for kind in CLI_KINDS}
    return replay(tr, "Self time per step of the CLI commands", CLI_STAGES, CLI_TIMED, runs, repeat)


def _median_ms(fn, repeat: int) -> float:
    """ms per call of ``fn``, median over ``repeat`` calls after one that warms up."""
    ns = []
    for _ in range(repeat + 1):
        t0 = time.perf_counter_ns()
        fn()
        ns.append(time.perf_counter_ns() - t0)
    return statistics.median(ns[1:]) / 1e6


def read_table(wl, repeat: int) -> dict[str, tuple[float, float]]:
    """Per CSV of ``analysis-cli``'s ``estimate`` commands, ms per read by
    ``cli._read_dataset`` and by ``np.loadtxt`` on its data lines, printed and returned."""
    rows = {}
    print(f"\nCSV reads of {wl.name}, ms per read (median of {repeat})")
    print(f"{'file':<16} {'rows':>6} {'_read_dataset':>14} {'np.loadtxt':>11} {'above':>7}")
    for c in wl.commands:
        if c.kind == "estimate":
            path = c.argv[c.argv.index("--data") + 1]
            with open(path) as fh:
                lines = fh.readlines()[1:]
            read = _median_ms(lambda: cli._read_dataset(path), repeat)
            floor = _median_ms(lambda: np.loadtxt(lines, delimiter=","), repeat)
            name = os.path.basename(path)
            rows[name] = read, floor
            print(f"{name:<16} {len(lines):>6} {read:14.2f} {floor:11.2f} {read - floor:7.2f}")
    return rows


def route_table(tr: Traffic) -> dict[tuple[str, str], np.ndarray]:
    """Per (call kind, model), the condition numbers of its recorded fits (NaN
    where a fit failed), printed as quantiles and route shares."""
    rows = defaultdict(list)
    for kind, fits in tr.of("_fit").items():
        for (spec, *_), _, out in fits:
            rows[kind, format_formula(spec)].append(out.condition)
    limit = GRAM_RTOL**-0.5
    print(f"\nRoutes of the recorded fits: GRAM_RTOL = {GRAM_RTOL:g}, the Gram route at kappa < {limit:g}")
    print(f"{'call kind':<24} {'fits':>5} " + " ".join(f"{f'k q{int(100 * q)}':>8}" for q in QUANTILES)
          + f" {'gram<10':>8} {'gram>=10':>8} {'svd':>6}  model")
    for (kind, model), parts in rows.items():
        kappa = rows[kind, model] = np.concatenate(parts)
        ok = kappa[np.isfinite(kappa)]
        quants = " ".join(f"{v:8.3g}" for v in np.quantile(ok, QUANTILES)) if ok.size else f"{'':35}"
        low, gram = np.mean(kappa < 10.0), np.mean(kappa < limit)
        print(f"{kind:<24} {kappa.size:>5} {quants} {low:8.0%} {gram - low:8.0%} {1.0 - gram:6.0%}  {model}")
    return dict(rows)


def faults(name: str, seed: int, cycles: int) -> None:
    """Minor faults and ms per call kind over ``cycles`` cycles of a workload's calls
    after its set-up, as a benchmark worker runs them; run in a fresh interpreter
    by ``fault_table``."""
    per_kind = defaultdict(lambda: ([], []))
    with prepared(name, seed) as wl, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamped standard error does not matter here
        for k in range(cycles):
            for call in wl.cycle(k):
                f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                call.run()
                per_kind[call.kind][1].append(time.perf_counter() - t0)
                per_kind[call.kind][0].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    for kind, (f, t) in per_kind.items():
        ms = 1e3 * statistics.mean(t)
        print(f"{f'{name} {kind}':<24} {len(f) // cycles:>5} {statistics.mean(f):8.0f} {ms:8.2f}")
    total_f, total_t = (sum(sum(v[i]) for v in per_kind.values()) / cycles for i in (0, 1))
    print(f"{name + ' cycle':<24} {'':>5} {total_f:8.0f} {1e3 * total_t:8.2f}")


def fault_table(seed: int, cycles: int) -> None:
    print(f"\nCalls of each workload's cycles, each workload in a fresh interpreter:"
          f" minor faults and ms per call (mean over {cycles} cycles)")
    print(f"{'call kind':<24} {'calls':>5} {'faults':>8} {'ms':>8}")
    for name in workloads.WORKLOADS:
        sys.stdout.flush()
        argv = [__file__, "--faults", name, "--cycles", str(cycles), "--seed", str(seed)]
        subprocess.run([sys.executable, *argv], check=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--cycles", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--faults", choices=tuple(workloads.WORKLOADS), help="one workload's faults only")
    args = parser.parse_args(argv)
    if args.faults:
        faults(args.faults, args.seed, args.cycles)
        return 0
    with ExitStack() as stack:
        wls = [stack.enter_context(prepared(name, args.seed)) for name in workloads.WORKLOADS]
        tr = record(wls)
        print(f"Seed {args.seed}; recorded fits per cycle: "
              + ", ".join(f"{kind} {len(fits)}" for kind, fits in tr.of("_fit").items()))
        stage_table(tr, args.repeat)
        draw_table(tr, args.repeat)
        route_table(tr)
        analysis = next(wl for wl in wls if wl.name == "analysis-cli")
        cli_table(tr, analysis, args.repeat)
        read_table(analysis, args.repeat)
    fault_table(args.seed, args.cycles)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
