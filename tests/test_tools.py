"""``tools/kernel_layers.py`` on the benchmark's tiny workloads, and
``tools/corpus_digest.py``'s groups in two orders.

The first tool names the kernel's private functions (its TIMED, DRAW_TIMED
and RECORDED tables), so a kernel rename that it does not follow fails here.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import ExitStack
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
MC_KINDS = {"mc-n200 km", "mc-n200 io", *(f"mc-scenarios s{i}" for i in (1, 2, 3, 4))}


def test_kernel_layers_replays_the_tiny_workloads(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/ or tools/
    monkeypatch.syspath_prepend(str(TOOLS))
    kl = importlib.import_module("kernel_layers")
    with ExitStack() as stack:
        wls = [stack.enter_context(kl.prepared(name, 3, tiny=True)) for name in kl.workloads.WORKLOADS]
        tr = kl.record(wls)
        analysis = next(wl for wl in wls if wl.name == "analysis-cli")
        steps = kl.cli_table(tr, analysis, 1)
        reads = kl.read_table(analysis, 1)

    assert tr.calls == {"mc-n200 km": 1, "mc-n200 io": 2, "mc-scenarios s1": 2, "mc-scenarios s2": 1,
                        "mc-scenarios s3": 1, "mc-scenarios s4": 1, "analysis-cli estimate": 2,
                        "analysis-cli compare": 15, "analysis-cli check": 20, "analysis-cli table1": 3}
    fitting = MC_KINDS | {"analysis-cli estimate"}
    stages = kl.stage_table(tr, 1)
    assert set(stages) == fitting
    assert set().union(*stages.values()) == {*kl.STAGES, "total"}
    # no recorded fit forms U·Uᵀ: run_grid asks for none, and estimate prints none
    assert not any(kw.get("vcov") for fits in tr.of("_fit").values() for _, kw, _ in fits)
    draws = kl.draw_table(tr, 1)
    assert set(draws) == MC_KINDS
    assert all(set(row) == {*kl.DRAW_STAGES, "total"} for row in draws.values())
    routes = kl.route_table(tr)
    assert {kind for kind, _ in routes} == fitting
    assert len(routes) == 2 + 2 + 3 * 4 + 2  # the models of each kind
    assert all(kappa.size and (kappa >= 1.0).all() for kappa in routes.values())
    assert set(steps) == {f"analysis-cli {kind}" for kind in kl.CLI_KINDS}
    assert all(set(row) == {*kl.CLI_STAGES, "total"} for row in steps.values())
    assert all(0.0 < row["verdicts"] < row["total"] for row in steps.values())  # every kind has some
    assert set(reads) == {"plain.csv", "weighted.csv"}
    assert all(read > 0.0 and floor > 0.0 for read, floor in reads.values())
    out = capsys.readouterr().out
    assert "Self time per stage" in out and "Routes of the recorded fits" in out
    assert "Self time per step of the CLI commands" in out and "CSV reads of analysis-cli" in out


def test_corpus_digests_do_not_depend_on_order(monkeypatch):
    """Every group of the corpus, run in GROUPS order and then in reverse in one
    process, hashes the same: no cache or state a group leaves moves another's
    bits. The digests themselves depend on the BLAS, so none is pinned."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TOOLS))
    cd = importlib.import_module("corpus_digest")
    forward = {name: cd.digest(name) for name in cd.GROUPS}
    backward = {name: cd.digest(name) for name in reversed(cd.GROUPS)}
    assert forward == backward
