"""The benchmark's three workloads.

Each workload is a closed loop over a fixed cycle of public calls into
linadjust (``linadjust.sim.run_grid`` or ``linadjust.cli.main``), looked
up through the module attribute at call time so a traced run sees
them. A workload makes its inputs from the run seed, warms up (the
part of set-up that belongs to the program), yields the calls of cycle
``k``, records each call's output, and checks the outputs at the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck
from checks import Check, Spec

MC_PIS = (0.3, 0.5, 0.7)  # a few of linadjust.sim.FIGURE1_PIS


@dataclass
class Call:
    kind: str
    ops: int
    run: Callable[[], object]
    rows: int = 0  # CSV data rows the call reads (estimate commands)


def call_seed(seed: int, cycle: int, slot: int) -> int:
    """Root seed for one run_grid call, distinct across seeds, cycles and slots."""
    digest = hashlib.sha256(f"{seed}|{cycle}|{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *key])


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass
class _McCall:
    kind: str
    cycle: int
    seed: int
    report: object | None
    error: str | None = None


def _dropped(report) -> int:
    return sum(round(c.fail_rate * c.reps) for c in report.cells)


class _MonteCarlo:
    """Shared bookkeeping for the run_grid workloads."""

    name = ""
    min_cycles = 1
    kernel = "monte-carlo"  # see speed.py

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.calls: list[_McCall] = []
        self._seeds: dict[tuple[int, int], int] = {}  # (cycle, slot) -> root seed

    def make_inputs(self, workdir: Path) -> None:
        """Monte Carlo inputs are the scenario definitions and seeds."""

    make_warmup_inputs = make_inputs

    def state(self) -> list[_McCall]:
        """What a worker process recorded, for the parent to check."""
        return self.calls

    def absorb(self, state: list[_McCall]) -> None:
        self.calls.extend(state)

    def warm_up(self) -> None:
        """Program objects, then a 2-replication grid of each kind of call."""
        import linadjust.sim as sim

        self.prepare()
        for kind in dict.fromkeys(c.kind for c in self.cycle(0)):
            scn, models, pis, _ = self._args(kind, 0)
            sim.run_grid(scn, models, pis, 2, seed=self.seed)

    def record(self, call: Call, cycle: int, slot: int, output, error: str | None) -> int:
        seed = self._seeds[(cycle, slot)]
        self.calls.append(_McCall(call.kind, cycle, seed, output, error))
        if error is not None:
            return call.ops
        return _dropped(output)

    def _args(self, kind: str, cycle: int):
        raise NotImplementedError

    def _call(self, kind: str, cycle: int, slot: int, seed: int) -> Call:
        import linadjust.sim as sim

        self._seeds[(cycle, slot)] = seed
        scn, models, pis, reps = self._args(kind, cycle)
        ops = len(models) * len(pis or [None]) * reps
        return Call(
            kind,
            ops,
            lambda: sim.run_grid(scn, models, pis, reps, seed=seed, keep_estimates=True),
        )

    def rerun(self, call: _McCall):
        import linadjust.sim as sim

        scn, models, pis, reps = self._args(call.kind, call.cycle)
        return sim.run_grid(scn, models, pis, reps, seed=call.seed, keep_estimates=True)

    def _ok_calls(self, kind: str) -> list[_McCall]:
        return [c for c in self.calls if c.kind == kind and c.error is None]

    def _pooled(self, kind: str) -> dict[tuple[str, object], dict]:
        """Estimates and mean SEs of one kind, pooled over its calls per (model, pi) cell."""
        pooled: dict[tuple[str, object], dict] = {}
        for c in self._ok_calls(kind):
            for cell in c.report.cells:
                slot = pooled.setdefault((cell.model, cell.pi), {"est": [], "se_sum": 0.0})
                slot["est"].append(cell.estimates)
                slot["se_sum"] += cell.mean_se * len(cell.estimates)
        for slot in pooled.values():
            slot["est"] = np.concatenate(slot["est"])
            slot["mean_se"] = slot["se_sum"] / len(slot["est"])
        return pooled

    def _cell_checks(self, kind: str, beta: float | None) -> tuple[list[Check], int]:
        """check_cell over every call of a kind; returns the checks and the failed ops."""
        bad = []
        failed_ops = 0
        for c in self._ok_calls(kind):
            results = [ck.check_cell(kind, cell, beta) for cell in c.report.cells]
            if not all(r.ok for r in results):
                bad.extend(r.detail for r in results if not r.ok)
                failed_ops += sum(cell.reps for cell in c.report.cells)
        n = len(self._ok_calls(kind))
        errors = [c.error for c in self.calls if c.kind == kind and c.error is not None]
        ok = not bad and not errors and n > 0
        detail = f"{n} calls" if ok else "; ".join((errors + bad)[:3]) or "no calls"
        return [Check(f"{self.name}.{kind}.cells", ok, detail)], failed_ops

    def _repeat_check(self, kind: str) -> Check:
        first = self._ok_calls(kind)
        if not first:
            return Check(f"{self.name}.{kind}.repeat", False, "no successful call")
        again = self.rerun(first[0])
        return ck.check_same_report(f"{self.name}.{kind}.repeat", first[0].report, again)


# The two counterexample populations of the criterion-05 configuration:
# one covariate X ~ N(0, 1), Y(a) = b_a + l_a X + e with unit noise,
# b1 = 1, b0 = 0, so the effect is 1.
KM_PI, KM_L1, KM_L0 = 0.3, 0.3, -0.7  # AncovaWorse at pi = 0.3: l1 = pi, l0 = pi - 1
IO_PI, IO_L1, IO_L0 = 0.75, 1.0, -0.5  # InteractionsOnlyWorseCentered at pi = 0.75


def counterexample_variances() -> dict[str, dict[str, float]]:
    """Hand-derived n * avar for the two mc-n200 configurations.

    With Sigma = 1 and unit noise, ANOVA has Var Y1/pi + Var Y0/(1 - pi)
    = (l1^2 + 1)/pi + (l0^2 + 1)/(1 - pi). ANCOVA with a known mean fits
    one slope g = pi l1 + (1 - pi) l0, leaving ((l_a - g)^2 + 1) per arm.
    The interactions-only model 1 + A + A:X1 pins gamma at 0 and fits
    delta = l1, leaving 1 in arm 1 and l0^2 + 1 in arm 0; empirical
    centering adds delta (2 delta_f - delta) with delta_f = l1 - l0.
    """
    def anova(pi, l1, l0):
        return (l1 * l1 + 1.0) / pi + (l0 * l0 + 1.0) / (1.0 - pi)

    g = KM_PI * KM_L1 + (1.0 - KM_PI) * KM_L0
    ancova = ((KM_L1 - g) ** 2 + 1.0) / KM_PI + ((KM_L0 - g) ** 2 + 1.0) / (1.0 - KM_PI)
    io = (
        1.0 / IO_PI
        + (IO_L0**2 + 1.0) / (1.0 - IO_PI)
        + IO_L1 * (2.0 * (IO_L1 - IO_L0) - IO_L1)
    )
    return {
        "km": {"1 + A": anova(KM_PI, KM_L1, KM_L0), "1 + A + X1": ancova},
        "io": {"1 + A": anova(IO_PI, IO_L1, IO_L0), "1 + A + A:X1": io},
    }


def _gaussian_arms(rng, n, pi, l1, l0):
    """The benchmark's own draw of a counterexample population."""
    x = rng.standard_normal((n, 1))
    a = (rng.random(n) < pi).astype(float)
    y1 = 1.0 + l1 * x[:, 0] + rng.standard_normal(n)
    y0 = l0 * x[:, 0] + rng.standard_normal(n)
    return a, x, a * y1 + (1.0 - a) * y0


ANOVA1, ANCOVA1, ANHECOVA1, IO1 = (
    Spec((0.0,), (0.0,)),
    Spec((None,), (0.0,)),
    Spec((None,), (None,)),
    Spec((0.0,), (None,)),
)


def _oracle_checks(prefix: str, cases) -> list[Check]:
    """Fit each (label, program fit function, ModelSpec, oracle Spec, data) against the oracle."""
    from linadjust.model import Dataset

    out = []
    for label, fit_fn, model_spec, spec, (a, x, y, w) in cases:
        fit = fit_fn(model_spec, Dataset(a, x, y, w))
        if fit_fn.__name__ == "fit_poisson_glm":
            oracle = ck.oracle_poisson(spec, a, x, y)
        else:
            full = Spec((None,) * x.shape[1], (None,) * x.shape[1], spec.mu)
            oracle = ck.oracle_linear(spec, full, a, x, y, w)
        out.append(ck.check_fit(f"{prefix}.oracle.{label}", fit, oracle))
    return out


class McN200(_MonteCarlo):
    """Criterion-05 configuration: n = 200, p = 1, many small fits."""

    name = "mc-n200"
    n = 200

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.r_km = 20 if tiny else 100
        self.r_io = 16 if tiny else 80
        if not tiny:
            self.min_cycles = self._cycles_for_power()

    def _cycles_for_power(self) -> int:
        """Cycles after which check_adjusted_loses is powered for both kinds."""
        need = []
        for kind, per_cycle in (("km", self.r_km), ("io", 2 * self.r_io)):
            v_u, v_a = counterexample_variances()[kind].values()
            reps = 2.0 * (ck.K_SE * math.hypot(v_a, v_u) / (v_a - v_u)) ** 2 + 1.0
            need.append(math.ceil(reps / per_cycle))
        return max(need)

    def prepare(self) -> None:
        from linadjust.model import KnownMean, named_spec, parse_formula
        from linadjust.population import make_counterexample
        from linadjust.sim import custom_scenario

        km_pop = make_counterexample("AncovaWorse", KM_PI)
        io_pop = make_counterexample("InteractionsOnlyWorseCentered", IO_PI)
        self.km_scn = custom_scenario(km_pop.sampler, pi=KM_PI, beta_ate=1.0, n=self.n)
        self.io_scn = custom_scenario(io_pop.sampler, pi=IO_PI, beta_ate=1.0, n=self.n)
        anova = named_spec("ANOVA", 1)
        self.km_models = [s.with_centering(KnownMean((0.0,))) for s in (anova, named_spec("ANCOVA", 1))]
        self.io_models = [anova, parse_formula("1 + A + A:X1", ["X1"])]

    def _args(self, kind, cycle):
        if kind == "km":
            return self.km_scn, self.km_models, None, self.r_km
        return self.io_scn, self.io_models, None, self.r_io

    def cycle(self, k: int) -> list[Call]:
        return [
            self._call("km", k, 0, call_seed(self.seed, k, 0)),
            self._call("io", k, 1, call_seed(self.seed, k, 1)),
            self._call("io", k, 2, call_seed(self.seed, k, 2)),
        ]

    def checks(self) -> tuple[list[Check], int]:
        from linadjust.estimate import fit_ols
        from linadjust.model import named_spec

        out: list[Check] = []
        failed = 0
        exact = counterexample_variances()
        for kind, pi in (("km", KM_PI), ("io", IO_PI)):
            cell_checks, f = self._cell_checks(kind, 1.0)
            out += cell_checks
            failed += f
            pooled = self._pooled(kind)
            est = {model: p["est"] for (model, _), p in pooled.items()}
            for (model, _), p in pooled.items():
                tag = f"{self.name}.{kind}.{model.replace(' ', '')}"
                out.append(ck.check_pooled_mean(f"{tag}.mean", p["est"], 1.0))
                out.append(
                    ck.check_pooled_variance(f"{tag}.nvar", p["est"], self.n, exact[kind][model], pi)
                )
                sd = float(p["est"].std(ddof=1))
                out.append(ck.check_se_ratio(f"{tag}.se_ratio", p["mean_se"], sd, len(p["est"])))
            (m_u, v_u), (m_a, v_a) = exact[kind].items()
            if m_u in est and m_a in est:
                out.append(
                    ck.check_adjusted_loses(
                        f"{self.name}.{kind}.adjusted_loses", est[m_a], est[m_u], self.n, v_a, v_u
                    )
                )
            else:
                out.append(Check(f"{self.name}.{kind}.adjusted_loses", False, "cells missing"))
            out.append(self._repeat_check(kind))

        rng = _rng(self.seed, 0xC0DE)
        km_data = (*_gaussian_arms(rng, self.n, KM_PI, KM_L1, KM_L0), None)
        io_data = (*_gaussian_arms(rng, self.n, IO_PI, IO_L1, IO_L0), None)
        out += _oracle_checks(
            self.name,
            [
                ("km_anova", fit_ols, self.km_models[0], Spec((0.0,), (0.0,), (0.0,)), km_data),
                ("km_ancova", fit_ols, self.km_models[1], Spec((None,), (0.0,), (0.0,)), km_data),
                ("io_anova", fit_ols, self.io_models[0], ANOVA1, io_data),
                ("io_interactions", fit_ols, self.io_models[1], IO1, io_data),
                ("io_full", fit_ols, named_spec("ANHECOVA", 1), ANHECOVA1, io_data),
            ],
        )
        return out, failed


class McScenarios(_MonteCarlo):
    """Standard scenarios 1-4 at n = 1000: larger draws, IRLS, the weighted path."""

    name = "mc-scenarios"
    n = 1000

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.reps = {"s1": 4, "s2": 4, "s3": 6, "s4": 6} if tiny else {
            "s1": 12, "s2": 12, "s3": 35, "s4": 27,
        }

    def prepare(self) -> None:
        """Program objects; the warm-up's scenario-2 grid fills the 10^7-draw truth cache."""
        from linadjust.model import named_spec
        from linadjust.sim import scenario

        self.models = [named_spec(m, 1) for m in ("ANOVA", "ANCOVA", "ANHECOVA")]
        self.scn = {f"s{i}": scenario(i, n=self.n) for i in (1, 2, 3, 4)}

    def _args(self, kind, cycle):
        if kind == "s1":
            pis = list(MC_PIS)
        elif kind == "s2":
            pis = [MC_PIS[cycle % len(MC_PIS)]]
        else:
            pis = None
        return self.scn[kind], self.models, pis, self.reps[kind]

    def cycle(self, k: int) -> list[Call]:
        # Five calls of about 50 ms each. Scenario 2 keeps the run seed and
        # takes its pi in turn: every new root seed would pay a fresh
        # 10^7-draw truth inside the timed phase, while the truth does not
        # depend on pi.
        calls = []
        for slot, kind in enumerate(("s1", "s2", "s3", "s4", "s1")):
            seed = self.seed if kind == "s2" else call_seed(self.seed, k, slot)
            calls.append(self._call(kind, k, slot, seed))
        return calls

    def _draw_oracle_data(self, rng, kind):
        n = self.n
        x = rng.normal(2.0, 1.0, (n, 1)) - 2.0
        x1 = x[:, 0]
        if kind in ("s1", "s2"):
            a = (rng.random(n) < 0.3).astype(float)
            if kind == "s1":
                y1 = 5.0 + 2.5 * x1 + rng.standard_normal(n)
                y0 = 3.0 + x1 + rng.standard_normal(n)
            else:
                y1 = rng.poisson(np.exp(3.0 + 0.6 * x1)).astype(float)
                y0 = rng.poisson(np.exp(1.0 + 0.6 * x1)).astype(float)
            w = None
        else:
            p_x = 1.0 / (1.0 + np.exp(-(4.0 - 2.0 * x1)))
            a = (rng.random(n) < p_x).astype(float)
            y1 = 7.0 + x1 + rng.standard_normal(n)
            y0 = 2.0 - x1 + x1 * x1 + rng.standard_normal(n)
            w = 1.0 / (p_x * (1.0 - p_x)) if kind == "s4" else None
        return a, x, a * y1 + (1.0 - a) * y0, w

    def checks(self) -> tuple[list[Check], int]:
        from linadjust.estimate import fit_ols, fit_poisson_glm, fit_weighted
        from linadjust.model import parse_formula

        out: list[Check] = []
        failed = 0
        for kind, beta in (("s1", 2.0), ("s2", None), ("s3", 4.0), ("s4", 4.0)):
            cell_checks, f = self._cell_checks(kind, beta)
            out += cell_checks
            failed += f

        for (model, pi), p in self._pooled("s1").items():
            tag = f"{self.name}.s1.{model.replace(' ', '')}.pi{pi}"
            out.append(ck.check_pooled_mean(f"{tag}.mean", p["est"], 2.0))
            v = ck.scenario1_variances(pi)[model]
            out.append(ck.check_pooled_variance(f"{tag}.nvar", p["est"], self.n, v, pi))
            sd = float(p["est"].std(ddof=1))
            out.append(ck.check_se_ratio(f"{tag}.se_ratio", p["mean_se"], sd, len(p["est"])))

        first_s2: dict[int, _McCall] = {}
        same = []
        for c in self._ok_calls("s2"):
            turn = c.cycle % len(MC_PIS)
            if turn in first_s2:
                same.append(ck.check_same_report("s2", first_s2[turn].report, c.report))
                continue
            first_s2[turn] = c
            for cell in c.report.cells:
                tag = f"{self.name}.s2.{cell.model.replace(' ', '')}.pi{cell.pi}"
                out.append(ck.check_pooled_mean(f"{tag}.log_rate_ratio", cell.estimates, 2.0))
                out.append(ck.check_truth(f"{tag}.truth", cell.bias, float(cell.estimates.mean())))
        bad = [c for c in same if not c.ok]
        out.append(
            Check(
                f"{self.name}.s2.repeat",
                bool(first_s2) and not bad,
                f"{len(same)} repeats" + (f"; {bad[0].detail}" if bad else ""),
            )
        )
        for kind in ("s1", "s3", "s4"):
            out.append(self._repeat_check(kind))

        rng = _rng(self.seed, 0xC0DE)
        data = {kind: self._draw_oracle_data(rng, kind) for kind in ("s1", "s2", "s3", "s4")}
        io_model = parse_formula("1 + A + A:X1", ["X1"])
        cases = []
        for kind, fit_fn in (
            ("s1", fit_ols), ("s2", fit_poisson_glm), ("s3", fit_ols), ("s4", fit_weighted)
        ):
            for model, spec in zip(self.models, (ANOVA1, ANCOVA1, ANHECOVA1)):
                cases.append((f"{kind}.{spec.label()}", fit_fn, model, spec, data[kind]))
        cases.append(("s4.interactions", fit_weighted, io_model, IO1, data["s4"]))
        out += _oracle_checks(self.name, cases)
        return out, failed


# ---------------------------------------------------------------------------
# Analysis through the CLI


@dataclass
class _Command:
    kind: str
    argv: list[str]
    rows: int = 0
    meta: dict = field(default_factory=dict)


def _write_csv(path: Path, a, y, x, w=None) -> None:
    cols = [a, y, *x.T] + ([w] if w is not None else [])
    header = "a,y," + ",".join(f"X{j + 1}" for j in range(x.shape[1])) + (",w" if w is not None else "")
    fmt = ["%d"] + ["%.17g"] * (len(cols) - 1)
    np.savetxt(path, np.column_stack(cols), fmt=fmt, delimiter=",", header=header, comments="")


def _population(rng, p: int, pi: float) -> dict:
    """A Gaussian-arm moment record: Y(a) = b_a + l_a'X + s_a e with X ~ N(0, Sigma)."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = (q * rng.uniform(0.3, 3.0, p)) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    l1, l0 = rng.uniform(-1.5, 1.5, p), rng.uniform(-1.5, 1.5, p)
    b1, b0 = rng.uniform(-2.0, 2.0, 2)
    s1, s0 = rng.uniform(0.5, 1.5, 2)
    return {
        "pi": pi,
        "sigma": sigma.tolist(),
        "omega1": (sigma @ l1).tolist(),
        "omega0": (sigma @ l0).tolist(),
        "mu1": float(b1),
        "mu0": float(b0),
        "q1": float(b1 * b1 + l1 @ sigma @ l1 + s1 * s1),
        "q0": float(b0 * b0 + l0 @ sigma @ l0 + s0 * s0),
    }


# The two `estimate` models: fully interacted (its own delta gives the
# centering correction) on the unweighted file, and a pinned formula on
# the weighted file, whose correction needs a weighted full-model refit.
EST_PLAIN = ("1 + A + X1 + X2 + X3 + A:X1 + A:X2 + A:X3", Spec((None,) * 3, (None,) * 3))
EST_WEIGHTED = ("1 + A + X1 + X2@0.5 + A:X1 + A:X3", Spec((None, 0.5, 0.0), (None, 0.0, None)))
EST_PI = 0.4


class AnalysisCli:
    """A user with data: estimate, compare, check and table1 through linadjust.cli.main."""

    name = "analysis-cli"
    min_cycles = 1
    kernel = "cli"  # see speed.py

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.rows = 300 if tiny else 20_000
        self.n_pops = 3 if tiny else 12
        self.n_check_pops = 2 if tiny else 6
        self.commands: list[_Command] = []
        self.first: dict[int, tuple[int, str]] = {}
        self.cycles_seen = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    @staticmethod
    def _dataset(rng, n: int, weighted: bool):
        mean = np.array([1.0, -0.5, 2.0])
        chol = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.8]])
        x = mean + rng.standard_normal((n, 3)) @ chol.T
        a = (rng.random(n) < EST_PI).astype(float)
        xc = x - mean
        y = (
            1.0 + 2.0 * a + xc @ np.array([1.0, 0.5, -0.3]) + a * (xc @ np.array([0.6, -0.4, 0.2]))
            + (1.0 + 0.5 * np.abs(xc[:, 0])) * rng.standard_normal(n)
        )
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        return a, x, y, w

    def _commands_for(self, workdir: Path, rng, rows: int, n_pops: int, n_check: int):
        data = {}
        cmds: list[_Command] = []
        for key, (formula, spec), weighted in (
            ("plain", EST_PLAIN, False), ("weighted", EST_WEIGHTED, True)
        ):
            d = self._dataset(rng, rows, weighted)
            path = workdir / f"{key}.csv"
            _write_csv(path, d[0], d[2], d[1], d[3])
            data[key] = d
            argv = ["estimate", "--data", str(path), "--model", formula, "--format", "json"]
            if not weighted:
                argv += ["--pi", repr(EST_PI)]
            cmds.append(_Command("estimate", argv, rows, {"data": key, "spec": spec}))
        pops = []
        for i in range(n_pops):
            p = 2 if i % 2 == 0 else 3
            pi = 0.5 if i == 0 else round(float(rng.uniform(0.15, 0.85)), 3)
            rec = _population(rng, p, pi)
            path = workdir / f"population{i}.json"
            path.write_text(json.dumps(rec))
            pops.append(rec)
            for pair in ck.TABLE1_PAIRS:
                argv = ["compare", "--population", str(path), "--model", pair[0],
                        "--model2", pair[1], "--format", "json"]
                cmds.append(_Command("compare", argv, meta={"pop": i, "pair": pair}))
        for i in range(n_check):
            rec = pops[i]
            for pair in ck.TABLE1_PAIRS:
                for centering in ("known-mean", "empirical"):
                    argv = ["check", "--model", pair[0], "--model2", pair[1],
                            "--pi", repr(rec["pi"]), "--p", str(len(rec["sigma"])),
                            "--centering", centering, "--format", "json"]
                    meta = {"pop": i, "pair": pair, "centering": centering}
                    cmds.append(_Command("check", argv, meta=meta))
        for i, rec in enumerate(pops):
            argv = ["table1", "--pi", repr(rec["pi"]), "--p", str(len(rec["sigma"])),
                    "--format", "json"]
            cmds.append(_Command("table1", argv, meta={"pop": i}))
        return cmds, data, pops

    def make_inputs(self, workdir: Path) -> None:
        rng = _rng(self.seed, 0xA11)
        self.commands, self.data, self.pops = self._commands_for(
            workdir, rng, self.rows, self.n_pops, self.n_check_pops
        )

    def make_warmup_inputs(self, workdir: Path) -> None:
        warm = workdir / "warm"
        warm.mkdir(exist_ok=True)
        cmds, _, _ = self._commands_for(warm, _rng(self.seed, 0x3A3), 40, 1, 1)
        by_kind = {}
        for c in cmds:
            by_kind.setdefault(c.kind, c)
        self.warm_commands = list(by_kind.values())

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        import linadjust.cli as cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue() if rc == 0 else err.getvalue()

    def prepare(self) -> None:
        """The CLI takes file paths; nothing to build."""

    def state(self) -> dict:
        """What a worker process recorded, for the parent to check."""
        return {"first": self.first, "cycles": self.cycles_seen,
                "mismatches": self.mismatches, "errors": self.errors}

    def absorb(self, state: dict) -> None:
        """Merge a worker's record; its outputs must equal every other worker's."""
        self.cycles_seen += state["cycles"]
        self.mismatches += state["mismatches"]
        self.errors += state["errors"]
        for slot, output in state["first"].items():
            if slot not in self.first:
                self.first[slot] = output
            elif output != self.first[slot]:
                self.mismatches.append(f"worker output of command #{slot} differs")

    def warm_up(self) -> None:
        for c in self.warm_commands:
            rc, text = self._main(c.argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {c.kind} exited {rc}: {text.strip()}")

    def cycle(self, k: int) -> list[Call]:
        return [Call(c.kind, 1, (lambda argv=c.argv: self._main(argv)), c.rows) for c in self.commands]

    def record(self, call: Call, cycle: int, slot: int, output, error: str | None) -> int:
        if slot == 0:
            self.cycles_seen += 1
        if error is not None:
            self.errors.append(f"{call.kind}: {error}")
            return 1
        rc, text = output
        if rc != 0:
            self.errors.append(f"{call.kind} exited {rc}: {text.strip()}")
            return 1
        if slot not in self.first:
            self.first[slot] = output
            return 0
        if output != self.first[slot]:
            self.mismatches.append(f"cycle {cycle} {call.kind} #{slot}")
            return 1
        return 0

    def checks(self) -> tuple[list[Check], int]:
        out: list[Check] = []
        failed = 0
        compare_payload: dict[tuple[int, tuple[str, str]], dict] = {}
        parsed: dict[int, dict] = {}
        for slot, cmd in enumerate(self.commands):
            if slot in self.first:
                parsed[slot] = json.loads(self.first[slot][1])
            if cmd.kind == "compare" and slot in parsed:
                compare_payload[(cmd.meta["pop"], cmd.meta["pair"])] = parsed[slot]

        for slot, cmd in enumerate(self.commands):
            tag = f"{self.name}.{cmd.kind}{slot}"
            if slot not in parsed:
                results = [Check(tag, False, "no successful output")]
            elif cmd.kind == "estimate":
                a, x, y, w = self.data[cmd.meta["data"]]
                spec = cmd.meta["spec"]
                full = Spec((None,) * 3, (None,) * 3)
                oracle = ck.oracle_linear(spec, full, a, x, y, w)
                results = [ck.check_estimate_json(tag, parsed[slot], oracle, spec, len(y))]
            elif cmd.kind == "compare":
                rec = self.pops[cmd.meta["pop"]]
                results = ck.check_compare(tag, parsed[slot], rec, cmd.meta["pair"])
            elif cmd.kind == "check":
                ref = compare_payload.get((cmd.meta["pop"], cmd.meta["pair"]))
                key = "verdict_known_mean" if cmd.meta["centering"] == "known-mean" else "verdict_centered"
                want = ref[key]["verdict"] if ref else "missing compare output"
                results = [ck.check_verdict_matches(tag, parsed[slot].get("verdict"), want)]
            else:  # table1
                rows = parsed[slot].get("rows", [])
                results = [Check(tag, len(rows) == len(ck.TABLE1_PAIRS), f"{len(rows)} rows")]
                for row in rows:
                    ref = compare_payload.get((cmd.meta["pop"], (row["model1"], row["model2"])))
                    for col, key in (("known_mean", "verdict_known_mean"), ("empirical", "verdict_centered")):
                        want = ref[key]["verdict"] if ref else "missing compare output"
                        results.append(ck.check_verdict_matches(f"{tag}.{col}", row[col], want))
            out += results
            if not all(r.ok for r in results):
                failed += self.cycles_seen
        out.append(
            Check(f"{self.name}.repeat", not self.mismatches, f"{len(self.mismatches)} outputs changed between cycles")
        )
        out.append(Check(f"{self.name}.exit_codes", not self.errors, "; ".join(self.errors[:3])))
        return out, failed


WORKLOADS = {w.name: w for w in (McN200, McScenarios, AnalysisCli)}
