"""Command-line driver.

Commands: ``estimate`` (fit a model to a CSV), ``check`` (dominance
verdict for a model pair), ``compare`` (exact asymptotic variances on
a population file), ``simulate`` (Monte Carlo grids), and ``table1``
(the standard comparison table). Each command returns its report;
``main`` writes it to stdout or ``--out`` and maps errors to exit
codes: 0 success, 2 invalid input or arguments (including an
unwritable ``--out``), 3 estimation failure (for example a singular
design). A failing command writes no report.

A report renders the command's JSON record: ``estimate`` and ``check`` through one
field table each (``_FIT_TEXT`` and ``_FIT_CSV``, ``_VERDICT_TEXT``), ``simulate``
through ``sim._COLUMNS``. CSV quotes a field only where it must, and a ``simulate``
text column that a value fills widens to its longest value plus a space.

Input CSV layout: header ``a,y,<covariates...>`` with an optional
trailing ``w`` column holding positive replication weights; UTF-8,
``.`` as the decimal separator. Each field is read as Python's
``float`` reads it; quoted fields and CRLF line endings are accepted and
blank lines are skipped. Validation errors cite the offending physical
line, counting the header as line 1; a quote never closed is "unexpected
end of data" however far it runs. The file is opened once and read a
block of lines at a time, by one of two routes. A block of plain numbers
(ASCII digits, ``.``, ``e``, ``E``, ``+``, ``-``, commas and line
breaks, each line within ``csv.field_size_limit()``) is converted by
numpy's C reader, which reads each value as ``float`` does; any other
block, and any block numpy rejects, goes through ``csv.reader`` and is
checked row by row, with the same values and messages.

Each command line is parsed once, by the named command's own parser. The full
parser runs only when the first argument names no command (``-h``, a typo, no
argument) or the command's parser leaves an argument over, and then prints
its usage, help or error exactly as a full parse always did.

``main`` may be called any number of times in one process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings
from dataclasses import replace
from itertools import chain, islice

import numpy as np

from .dominance import (
    DominanceVerdict,
    check_centered,
    check_known_mean,
    condition_centered,
    corollaries,
    table1,
)
from .estimate import (
    EstimationError,
    FitResult,
    SingularDesignError,
    _centering_penalty,
    _singular,
    fit_ols,
    fit_poisson_glm,
    fit_weighted,
)
from .model import (
    NAMED_SPECS,
    Dataset,
    KnownMean,
    ModelSpec,
    _check_names,
    _check_pi,
    _default_names,
    format_formula,
    named_spec,
    parse_formula,
)
from .population import (
    _known_mean_variance,
    _theorem2_gap,
    population_from_dict,
    solve_population,
)
from .sim import _csv, _json, run_grid, scenario

__all__ = ["main"]

_NAMED = frozenset(name.lower() for name in NAMED_SPECS)
_BLOCK_ROWS = 4096  # CSV lines read and converted to floats per pass
_PLAIN = b"0123456789.eE+-,\r\n"  # the bytes of a block numpy's C reader may convert


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _parse_model(text: str, covariate_names: list[str]) -> ModelSpec:
    name = text.strip().lower()
    if name in _NAMED:
        return named_spec(name, len(covariate_names))
    return parse_formula(text, covariate_names)


def _parse_float_list(text: str, what: str) -> list[float]:
    """Comma-separated numbers; an empty text is an empty list, an empty item an error."""
    try:
        return [float(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_pis(text: str) -> list[float]:
    """Comma list ("0.3,0.5") or inclusive range ("0.1:0.9:0.1")."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"pi range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(v) for v in parts)
        except ValueError:
            raise ValueError(f"pi range must be numeric, got {text!r}") from None
        if step <= 0 or stop < start:
            raise ValueError(f"pi range must increase, got {text!r}")
        # the half step of slack keeps a last value that floating point put just past
        # stop; one more than 1e-12 past it is dropped, and none is kept past stop
        grid = np.arange(start, stop + step / 2, step)
        vals = [min(round(v, 12), stop) for v in grid if v <= stop + 1e-12]
    else:
        vals = _parse_float_list(text, "--pis")
    if not vals or not all(0.0 < v < 1.0 for v in vals):
        raise ValueError(f"assignment probabilities must lie in (0, 1), got {text!r}")
    return vals


def _not_utf8(path: str) -> ValueError:
    """The error for a file that is not UTF-8, citing the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # lines end as csv.reader counts them: \n, \r or \r\n
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValueError(f"{path} line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})")
    return ValueError(f"{path}: not UTF-8 text")


def _check_utf8(text: str, path: str) -> None:
    """Raise the file's not-UTF-8 error if ``text`` holds an escaped byte (a lone surrogate)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise _not_utf8(path) from None


def _csv_error(exc: csv.Error, fh, start: int) -> csv.Error:
    """``exc`` of the row after line ``start``, or, past the field limit, a quote never closed."""
    if str(exc).startswith("field larger"):
        fh.seek(0)
        limit = csv.field_size_limit(sys.maxsize)
        try:
            next(csv.reader(islice(fh, start, None), strict=True), None)
        except csv.Error as again:
            exc = again if str(again) == "unexpected end of data" else exc
        finally:
            csv.field_size_limit(limit)
    return exc


def _header(reader, fh, path: str) -> list[str]:
    """The checked header names: ``a``, ``y``, at least one covariate, optional ``w``;
    the covariates' names as formulas can address them (``model._check_names``)."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path} line 1: {_csv_error(exc, fh, 0)}") from None
    if header is None:
        raise ValueError(f"{path}: empty file")
    _check_utf8("".join(header), path)
    names = [h.strip() for h in header]
    if len(names) < 3 or names[0] != "a" or names[1] != "y":
        got = ",".join(names)
        raise ValueError(f"{path}: header must be 'a,y,<covariates...>[,w]', got '{got}'")
    if names[2:] == ["w"]:
        raise ValueError(f"{path}: need at least one covariate column")
    try:
        _check_names(names[2 : len(names) - (names[-1] == "w")])
    except ValueError as exc:
        raise ValueError(f"{path} line 1: {exc}") from None
    return names


def _bad_cells(arr: np.ndarray, names: list[str]) -> np.ndarray:
    """Where a value rule fails: a not 0 or 1, a value not finite, a weight not positive."""
    bad = ~np.isfinite(arr)
    bad[:, 0] = (arr[:, 0] != 0.0) & (arr[:, 0] != 1.0)
    if names[-1] == "w":
        bad[:, -1] |= arr[:, -1] <= 0.0
    return bad


def _plain_floats(lines: list[str], width: int) -> np.ndarray | None:
    """A block of plain numeric lines as floats by numpy's C reader, blank lines
    dropped; None unless the block holds only ``_PLAIN`` characters and some
    data, no line is over the CSV field limit and every row has ``width`` values.

    numpy parses each field with ``PyOS_string_to_double``, as ``float`` does,
    and every field it accepts here is one ``float`` accepts, with the same bits.
    """
    text = "".join(lines)
    if not text.isascii() or text.encode().translate(None, _PLAIN) or not text.strip("\r\n"):
        return None  # an all-blank block would make numpy warn of no data
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width else None


def _walk(block: list[tuple[list[str], int]], names: list[str], path: str):
    """A block of (row, line it ends on) pairs checked row by row: its floats, blank
    rows dropped, and the error of its first value fault (first line, then column)
    or None. Raises its first row fault: a byte that is not UTF-8, a wrong number
    of fields or a value ``float`` rejects."""
    rows, lines, width = [], [], len(names)
    for row, end in block:
        text = "".join(row)
        _check_utf8(text, path)
        if not text.strip():
            continue
        if len(row) != width:
            raise ValueError(f"{path} line {end}: expected {width} fields, got {len(row)}")
        try:
            rows.extend(map(float, row))
        except ValueError:
            raise ValueError(f"{path} line {end}: non-numeric value in {row!r}") from None
        lines.append(end)
    arr = np.array(rows).reshape(-1, width)
    bad = _bad_cells(arr, names)
    if not bad.any():
        return arr, None
    i, j = divmod(int(bad.argmax()), width)
    rule = "a must be 0 or 1" if j == 0 else f"{names[j]} must be finite"
    if names[-1] == "w" and j == width - 1 and np.isfinite(arr[i, j]):
        rule = "weight must be positive"
    return arr, ValueError(f"{path} line {lines[i]}: {rule}, got {arr[i, j]:.15g}")


def _read_dataset(path: str) -> tuple[Dataset, list[str]]:
    """Read the input CSV in one pass; returns the dataset and covariate names.

    The file is read ``_BLOCK_ROWS`` lines at a time, and each block takes
    one of two routes. A block of plain numbers with no value fault is
    converted by numpy's C reader (``_plain_floats``). Any other block is
    tokenised by ``csv.reader``, reading on into the rest of the file if a
    quoted field crosses the block's end, and walked row by row
    (``_walk``), each row with the line ``csv.reader`` ends it on. A row
    fault is raised there; the first value fault is raised at the end of
    the file, so that a later row fault wins over it.
    """
    try:
        fh = open(path, newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, strict=True)
        names = _header(reader, fh, path)
        width, line = len(names), reader.line_num
        blocks, error = [np.empty((0, width))], None
        while lines := list(islice(fh, _BLOCK_ROWS)):
            values = _plain_floats(lines, width)
            if values is not None and (error is not None or not _bad_cells(values, names).any()):
                blocks.append(values)
                line += len(lines)
                continue
            reader, block = csv.reader(chain(lines, fh), strict=True), []
            try:  # extend keeps the rows before a csv.Error
                block.extend((row, line + reader.line_num) for row in islice(reader, _BLOCK_ROWS))
            except csv.Error as exc:  # unless an earlier row is at fault, cite the broken row
                _walk(block, names, path)
                end = block[-1][1] if block else line
                raise ValueError(f"{path} line {end + 1}: {_csv_error(exc, fh, end)}") from None
            values, fault = _walk(block, names, path)
            blocks.append(values)
            error = error or fault
            line += reader.line_num
    if error is not None:
        raise error
    arr = np.concatenate(blocks)
    if not len(arr):
        raise ValueError(f"{path}: no data rows")
    k = width - (names[-1] == "w")  # the covariates are columns 2 to k - 1
    try:
        data = Dataset(arr[:, 0], arr[:, 2:k], arr[:, 1], arr[:, k] if k < width else None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return data, names[2:k]


# The estimate record's text lines, (JSON key, label, format), and its CSV rows
_FIT_TEXT = (
    ("spec", "model", ""), ("centering", "centering", ""), ("n_used", "n", ""), ("pi", "pi", ".10g"),
    ("ate_hat", "ate_hat", ".10g"), ("ate_se", "ate_se", ".10g"), ("converged", "converged", ""),
    ("se_clamped", "se_clamped  ", ""),  # one space wider than the rest, as it always was
    ("condition_number", "condition", ".6g"), ("iterations", "iterations", ""),
)
_FIT_CSV = ("ate_hat", "ate_se", "converged", "pi", "se_clamped")
# The check record's text lines, then one line per explanation entry
_VERDICT_TEXT = (
    ("model1", "model1", ""), ("model2", "model2", ""), ("pi", "pi", "g"),
    ("centering", "centering", ""), ("verdict", "verdict", ""), ("theorem", "condition", ""),
)
# A field at this value has no text line or CSV row: pi not given, a flag that says nothing
_QUIET = {"pi": None, "converged": True, "se_clamped": False}


def _shown(record: dict, key: str) -> bool:
    return key not in _QUIET or record[key] != _QUIET[key]


def _text(record: dict, table) -> list[str]:
    """``record``'s labelled text lines, in ``table``'s order and formats."""
    return [f"{label:<11}{record[key]:{fmt}}" for key, label, fmt in table if _shown(record, key)]


def _fit_report(fit: FitResult, record: dict, cov_names: list[str], fmt: str) -> str:
    """Render the ``estimate`` record: its fields through ``_FIT_TEXT`` or
    ``_FIT_CSV``, then its coefficients, whose free/fixed status comes from ``fit.spec``."""
    if fmt == "json":
        return _json(record) + "\n"
    theta = record["theta_hat"]
    terms = ["intercept", "A", *cov_names, *("A:" + name for name in cov_names)]
    values = [theta["alpha"], theta["beta"], *theta["gamma"], *theta["delta"]]
    free = [True, True, *(c.is_free for c in fit.spec.gamma + fit.spec.delta)]
    if fmt == "csv":
        fields = [(key, record[key]) for key in _FIT_CSV if _shown(record, key)]
        return _csv([("term", "value"), *fields, *zip(terms, map(float, values))])
    lines = [*_text(record, _FIT_TEXT), "", f"{'term':<12}{'estimate':>14}  status"]
    for term, value, is_free in zip(terms, values, free):
        lines.append(f"{term:<12}{value:>14.6g}  {'free' if is_free else 'fixed'}")
    return "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> str:
    if args.hc1 and args.family != "gaussian":
        raise ValueError("--hc1 applies only to --family gaussian")
    data, cov_names = _read_dataset(args.data)
    spec = _parse_model(args.model, cov_names)
    if args.centering == "known-mean":
        if args.mean is None:
            raise ValueError("--centering known-mean requires --mean v1,v2,...")
        mu = _parse_float_list(args.mean, "--mean")
        if len(mu) != spec.p:
            raise ValueError(f"--mean needs {spec.p} values, got {len(mu)}")
        spec = spec.with_centering(KnownMean(tuple(mu)))
    elif args.mean is not None:
        raise ValueError("--mean applies only with --centering known-mean")

    pi = args.pi
    if args.estimate_pi:
        if pi is not None:
            raise ValueError("--pi and --estimate-pi are mutually exclusive")
        pi = float(data.a.mean())
        print(
            f"warning: estimating pi from the sample treated fraction ({pi:.6g}); "
            "design-based results assume pi is known",
            file=sys.stderr,
        )
    elif pi is not None:
        _check_pi(pi)

    # a library warning would print this file's source line: say each once, plainly
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.family == "poisson":
                fit = fit_poisson_glm(spec, data)
            elif data.weights is not None:
                fit = fit_weighted(spec, data, hc1=args.hc1)
            else:
                fit = fit_ols(spec, data, hc1=args.hc1)
        except SingularDesignError as exc:  # name the design's columns as the file does
            own = {}
            for label, name in zip(_default_names(spec.p), cov_names):
                own[label], own["A:" + label] = name, "A:" + name
            raise _singular(tuple(own.get(c, c) for c in exc.columns), exc.refit) from None
    for msg in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {msg}", file=sys.stderr)
    return _fit_report(fit, {**fit.to_dict(cov_names), "pi": pi}, cov_names, args.format)


def _verdict_record(verdict: DominanceVerdict) -> dict:
    """``dataclasses.asdict(verdict)``, without its recursive deep copy."""
    return {**vars(verdict), "explanation": dict(verdict.explanation)}


def cmd_check(args: argparse.Namespace) -> str:
    names = _default_names(args.p)
    spec1 = _parse_model(args.model, names)
    spec2 = _parse_model(args.model2, names)
    if args.centering == "known-mean":
        verdict = check_known_mean(spec1, spec2, args.pi)
    else:
        verdict = check_centered(spec1, spec2, args.pi)
    record = {**_verdict_record(verdict), "model1": format_formula(spec1, names),
              "model2": format_formula(spec2, names), "pi": args.pi}
    if args.format == "json":
        return _json(record) + "\n"
    lines = _text(record, _VERDICT_TEXT) + [f"  {k}: {v}" for k, v in record["explanation"].items()]
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> str:
    try:
        with open(args.population, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {args.population}: {exc}") from exc
    except UnicodeDecodeError:
        raise _not_utf8(args.population) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.population}: invalid JSON: {exc}") from exc
    try:
        pop = population_from_dict(raw)
    except (ValueError, TypeError, SingularDesignError) as exc:
        raise ValueError(f"{args.population}: {exc}") from exc
    if args.pi is not None:
        pop = replace(pop, pi=args.pi)

    names = _default_names(pop.p)
    spec1 = _parse_model(args.model, names)
    spec2 = _parse_model(args.model2, names)

    # each model is solved once; the formulas are those of the public variance functions
    full_spec = named_spec("ANHECOVA", pop.p)
    try:
        sol1, sol2, full = (solve_population(s, pop) for s in (spec1, spec2, full_spec))
    except SingularDesignError as exc:  # a fault of the record, as its other faults are
        raise ValueError(f"{args.population}: {exc}") from exc
    v1, v2 = (_known_mean_variance(pop.moments, s, pop.pi) for s in (sol1, sol2))
    vc1, vc2 = (
        v + _centering_penalty(pop.moments.sigma, s.delta, full.delta)
        for v, s in ((v1, sol1), (v2, sol2))
    )
    gap = _theorem2_gap(pop, sol1, sol2) if condition_centered(spec1, spec2) else None
    verdict_km = check_known_mean(spec1, spec2, pop.pi)
    verdict_c = check_centered(spec1, spec2, pop.pi)

    payload = {
        "population": args.population,
        "pi": pop.pi,
        "beta_ate": sol1.beta_ate,
        "model1": format_formula(spec1, names),
        "model2": format_formula(spec2, names),
        "v_known_mean": {"model1": v1, "model2": v2, "gap": v2 - v1},
        "v_centered": {"model1": vc1, "model2": vc2, "gap": vc2 - vc1},
        "theorem2_gap": gap,
        "verdict_known_mean": _verdict_record(verdict_km),
        "verdict_centered": _verdict_record(verdict_c),
    }
    if args.format == "json":
        return _json(payload) + "\n"
    lines = [
        f"population  {args.population} (p={pop.p}, pi={pop.pi:g})",
        f"beta_ate    {sol1.beta_ate:.10g}",
        f"model1      {payload['model1']}",
        f"model2      {payload['model2']}",
        "",
        f"{'':<22}{'model1':>14}{'model2':>14}{'gap(2-1)':>14}",
        f"{'V (known mean)':<22}{v1:>14.8g}{v2:>14.8g}{v2 - v1:>14.8g}",
        f"{'V~ (centered)':<22}{vc1:>14.8g}{vc2:>14.8g}{vc2 - vc1:>14.8g}",
        "",
        f"closed-form centered gap  {'n/a (condition fails)' if gap is None else format(gap, '.8g')}",
        f"verdict (known mean)      {verdict_km.verdict} [{verdict_km.theorem}]",
        f"verdict (centered)        {verdict_c.verdict} [{verdict_c.theorem}]",
    ]
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> str:
    scn = scenario(args.scenario, n=args.n)
    names = _default_names(1)
    if args.models is not None:
        models = [_parse_model(m, names) for m in args.models.split(",") if m.strip()]
        if not models:
            raise ValueError("--models is empty")
    else:
        models = [named_spec("ANOVA", 1), named_spec("ANCOVA", 1), named_spec("ANHECOVA", 1)]
    if scn.covariate_assignment:
        if args.pis is not None:
            print(
                f"note: scenario {scn.id} assigns treatment from the covariate; --pis ignored",
                file=sys.stderr,
            )
        pis = None
    else:
        pis = _parse_pis(args.pis) if args.pis is not None else [0.5]
    report = run_grid(scn, models, pis, args.reps, seed=args.seed)
    return getattr(report, f"to_{args.format}")()


def cmd_table1(args: argparse.Namespace) -> str:
    rows = table1(args.p, args.pi)
    extra = corollaries(args.pi, args.p)
    if args.format == "json":
        return _json({"pi": args.pi, "rows": rows, "corollaries": extra}) + "\n"
    lines = [f"pairwise dominance at pi = {args.pi:g} (does model1 dominate model2?)", ""]
    lines.append(f"{'model1':<28}{'model2':<28}{'known mean':<16}{'centered':<16}")
    for r in rows:
        lines.append(
            f"{r['model1']:<28}{r['model2']:<28}{r['known_mean']:<16}{r['empirical']:<16}"
        )
    lines.append("")
    lines.append("named-estimator claims:")
    for r in extra:
        status = "certified" if r["certified"] else "not certified by these conditions"
        lines.append(f"  {r['model1']} vs {r['model2']}: {r['verdict']} ({status})")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="linadjust",
        description=(
            "Regression-adjusted average treatment effect estimation for "
            "randomized experiments, with exact variance comparisons and a "
            "seeded simulation harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "csv", "json")) -> None:
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_est = sub.add_parser("estimate", help="fit a model to a CSV dataset")
    p_est.add_argument("--data", required=True, help="CSV with header a,y,<covariates...>[,w]")
    p_est.add_argument("--model", required=True, help="formula like '1+A+X+A:X' or a model name")
    p_est.add_argument(
        "--centering",
        choices=("empirical", "known-mean"),
        default="empirical",
        help="how covariates are centered before fitting",
    )
    p_est.add_argument("--mean", help="comma-separated known covariate means")
    p_est.add_argument("--pi", type=float, help="assignment probability (recorded in output)")
    p_est.add_argument(
        "--estimate-pi",
        action="store_true",
        help="fall back to the sample treated fraction for pi (prints a warning)",
    )
    p_est.add_argument(
        "--family",
        choices=("gaussian", "poisson"),
        default="gaussian",
        help="outcome family; poisson uses a log link and robust errors",
    )
    p_est.add_argument("--hc1", action="store_true", help="small-sample variance scaling")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_chk = sub.add_parser("check", help="dominance verdict for an ordered model pair")
    p_chk.add_argument("--model", required=True, help="candidate dominating model")
    p_chk.add_argument("--model2", required=True, help="model being compared against")
    p_chk.add_argument("--pi", type=float, required=True, help="assignment probability")
    p_chk.add_argument(
        "--centering", choices=("empirical", "known-mean"), default="empirical"
    )
    p_chk.add_argument("--p", type=_positive_int, default=1, help="number of covariates")
    add_common(p_chk, formats=("text", "json"))
    p_chk.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="exact asymptotic variances on a population file")
    p_cmp.add_argument("--population", required=True, help="population JSON (moment record)")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--model2", required=True)
    p_cmp.add_argument("--pi", type=float, help="override the file's assignment probability")
    add_common(p_cmp, formats=("text", "json"))
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo grid")
    p_sim.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True)
    p_sim.add_argument("--models", help="comma-separated formulas (default: the standard three)")
    p_sim.add_argument("--pis", help="comma list '0.3,0.5' or range '0.1:0.9:0.1'")
    p_sim.add_argument("--reps", type=_positive_int, default=1000)
    p_sim.add_argument("--n", type=_positive_int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    add_common(p_sim, formats=("csv", "json", "text"))
    p_sim.set_defaults(func=cmd_simulate)

    p_t1 = sub.add_parser("table1", help="print the standard model-comparison table")
    p_t1.add_argument("--pi", type=float, default=0.3, help="assignment probability")
    p_t1.add_argument("--p", type=_positive_int, default=2, help="number of covariates")
    add_common(p_t1, formats=("text", "json"))
    p_t1.set_defaults(func=cmd_table1)
    parser.commands = sub.choices  # each command's own parser, by name, for _parse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once, by the parser of the command ``argv[0]`` names. The full
    parser runs instead when ``argv[0]`` names no command or the command's parser
    leaves a token over, so that its usage, help and error texts are the ones printed."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and return its
    exit code; argparse itself exits 2 on bad arguments and 0 after help. The
    command's own parser reads ``argv`` once; the full parser runs only when
    ``argv[0]`` names no command or a token is left over (``_parse``)."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        text = args.func(args)
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EstimationError) else 2
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
