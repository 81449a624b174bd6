import builtins
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linadjust import (
    Dataset,
    Empirical,
    KnownMean,
    asymptotic_variance_centered,
    asymptotic_variance_known_mean,
    fit_ols,
    fit_poisson_glm,
    fit_weighted,
    named_spec,
    parse_formula,
    population_to_dict,
    random_moment_population,
    run_grid,
    scenario,
    variance_gap_theorem2,
)
from linadjust import cli, estimate, population
from linadjust.cli import main
from linadjust.sim import REPORT_FIELDS
from linadjust.dominance import _TABLE1_ROWS, check_centered, check_known_mean

A = [1, 1, 1, 1, 0, 0, 0, 0]
X = [0.5, -1.0, 2.0, 0.0, 1.0, -0.5, 0.25, -2.0]
Y = [4.0, 1.5, 7.0, 3.0, 2.0, 0.5, 1.25, -1.0]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "trial.csv"
    rows = ["a,y,x1"]
    rows += [f"{a},{y},{x}" for a, y, x in zip(A, Y, X)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def counts_csv(tmp_path):
    rng = np.random.default_rng(4)
    a = (np.arange(40) % 2).astype(float)
    x = rng.normal(size=40)
    y = rng.poisson(np.exp(0.5 + 0.8 * a + 0.2 * x)).astype(float)
    path = tmp_path / "counts.csv"
    rows = ["a,y,x1"] + [f"{ai:g},{yi:g},{xi}" for ai, yi, xi in zip(a, y, x)]
    path.write_text("\n".join(rows) + "\n")
    return path


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _assert_sliced(lines, edges, rows, right=False):
    """Each line, sliced at ``edges`` (None is the line's end), holds its row's
    formatted values, each set off by a space from the cell beside it: a
    left-aligned cell ends in a space, a right-aligned one begins with one."""
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        pieces = [line[a:b] for a, b in zip(edges, edges[1:])]
        assert [p.lstrip() if right else p.rstrip() for p in pieces] == row
        assert all(p.startswith(" ") if right else p.endswith(" ") for p in pieces)


class TestEstimate:
    def test_json_matches_library(self, data_csv, capsys):
        rc, out, _ = run(
            ["estimate", "--data", str(data_csv), "--model", "anhecova", "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        spec = named_spec("ANHECOVA", 1).with_centering(Empirical())
        fit = fit_ols(spec, Dataset(np.array(A, float), np.array(X), np.array(Y)))
        assert payload["ate_hat"] == pytest.approx(fit.ate_hat, abs=1e-12)
        assert payload["ate_se"] == pytest.approx(fit.ate_se, abs=1e-12)
        assert payload["theta_hat"]["gamma"][0] == pytest.approx(fit.gamma[0], abs=1e-12)
        assert payload["n_used"] == len(A)
        assert payload["pi"] is None
        assert payload["spec"] == "1 + A + x1 + A:x1"
        assert payload["se_clamped"] is False
        assert payload["condition_number"] == fit.condition_number
        assert payload["iterations"] == 1
        assert list(payload)[-3:] == ["condition_number", "iterations", "pi"]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("case", ["plain", "hc1", "weighted", "poisson"])
    def test_report_forms_no_covariance(self, tmp_path, data_csv, counts_csv, capsys, fmt, case):
        """The report prints no covariance and forms none: with ``estimate._vcov``
        raising, each format prints what the public fit, which forms it, renders to."""
        path, extra = {"plain": (data_csv, []), "hc1": (data_csv, ["--hc1"]),
                       "poisson": (counts_csv, ["--family", "poisson"])}.get(case, (None, []))
        if case == "weighted":
            path = tmp_path / "weighted.csv"
            rows = [f"{a},{y},{x},{1.0 + 0.25 * i}" for i, (a, y, x) in enumerate(zip(A, Y, X))]
            path.write_text("\n".join(["a,y,x1,w", *rows]) + "\n")
        data, names = cli._read_dataset(str(path))
        spec = parse_formula("1 + A + A:x1", names)
        if case == "poisson":
            fit = fit_poisson_glm(spec, data)
        else:
            fit = (fit_weighted if case == "weighted" else fit_ols)(spec, data, hc1=case == "hc1")
        assert fit.vcov is not None
        want = cli._fit_report(fit, {**fit.to_dict(names), "pi": None}, names, fmt)
        argv = ["estimate", "--data", str(path), "--model", "1 + A + A:x1", "--format", fmt,
                *extra]
        with mock.patch.object(estimate, "_vcov", side_effect=AssertionError("formed a covariance")):
            rc, out, _ = run(argv, capsys)
        assert (rc, out) == (0, want)

    def test_text_report(self, data_csv, capsys):
        rc, out, _ = run(
            ["estimate", "--data", str(data_csv), "--model", "1 + A + x1"], capsys
        )
        assert rc == 0
        assert "ate_hat" in out
        assert "A:x1" in out
        assert "fixed" in out and "free" in out
        lines = out.splitlines()
        assert lines[lines.index("") - 2].startswith("condition  ")
        assert lines[lines.index("") - 1] == "iterations 1"

    def test_known_mean_centering(self, data_csv, capsys):
        rc, out, _ = run(
            [
                "estimate",
                "--data",
                str(data_csv),
                "--model",
                "anhecova",
                "--centering",
                "known-mean",
                "--mean",
                "0.0",
                "--format",
                "json",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        spec = named_spec("ANHECOVA", 1).with_centering(KnownMean((0.0,)))
        fit = fit_ols(spec, Dataset(np.array(A, float), np.array(X), np.array(Y)))
        assert payload["ate_hat"] == pytest.approx(fit.ate_hat, abs=1e-12)
        assert payload["centering"] == "known-mean [0.0]"

        rc, out, _ = run(
            ["estimate", "--data", str(data_csv), "--model", "anhecova",
             "--centering", "known-mean", "--mean", "0.0"],
            capsys,
        )
        assert rc == 0
        assert "centering  known-mean [0.0]" in out.splitlines()

    def test_known_mean_requires_values(self, data_csv, capsys):
        rc, _, err = run(
            ["estimate", "--data", str(data_csv), "--model", "anova",
             "--centering", "known-mean"],
            capsys,
        )
        assert rc == 2
        assert "--mean" in err

    @pytest.mark.parametrize(
        "mean, message",
        [
            ("1,x", "--mean must be comma-separated numbers, got '1,x'"),
            ("0,0", "--mean needs 1 values, got 2"),
        ],
    )
    def test_bad_known_mean(self, data_csv, capsys, mean, message):
        rc, out, err = run(
            ["estimate", "--data", str(data_csv), "--model", "ancova",
             "--centering", "known-mean", "--mean", mean],
            capsys,
        )
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_known_mean_with_empty_item(self, data_csv, capsys):
        rc, out, err = run(
            ["estimate", "--data", str(data_csv), "--model", "ancova",
             "--centering", "known-mean", "--mean", "0,"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == "error: --mean must be comma-separated numbers, got '0,'\n"

    def test_mean_requires_known_mean_centering(self, data_csv, capsys):
        rc, _, err = run(
            ["estimate", "--data", str(data_csv), "--model", "ancova", "--mean", "5.0"],
            capsys,
        )
        assert rc == 2
        assert "--mean" in err and "--centering known-mean" in err

    @staticmethod
    def clamp_csv(tmp_path):
        path = tmp_path / "clamp.csv"
        x = [-0.626, 1.107, 0.539, 0.829, -0.602, -0.557, -0.822, -0.541]
        y = [-1.943, 0.429, -1.5, 0.079, -1.298, 0.117, -1.192, -0.02]
        path.write_text("\n".join(["a,y,x1"] + [f"{a},{v},{u}" for a, v, u in zip(A, y, x)]))
        return path

    def test_clamped_se_is_flagged_in_every_format(self, tmp_path, capsys):
        path = self.clamp_csv(tmp_path)
        out = {}
        for fmt in ("json", "text", "csv"):
            rc, out[fmt], _ = run(
                ["estimate", "--data", str(path), "--model", "1 + A + A:x1", "--format", fmt],
                capsys,
            )
            assert rc == 0
        payload = json.loads(out["json"])
        assert payload["ate_se"] == 0.0
        assert payload["se_clamped"] is True
        assert "se_clamped  True" in out["text"].splitlines()
        assert "se_clamped,True" in out["csv"].splitlines()
        for line in out["csv"].splitlines()[1:]:
            term, value = line.split(",")
            if term != "se_clamped":
                float(value)

    def test_clamp_warning_is_one_plain_stderr_line(self, tmp_path, capsys):
        """No Python warning, whose text would name a source line of the package."""
        path = self.clamp_csv(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run(
                ["estimate", "--data", str(path), "--model", "1 + A + A:x1", "--format", "json"],
                capsys,
            )
        assert rc == 0
        assert err == "warning: centered-variance correction clamped at zero\n"

    def test_estimate_pi_warning_and_conflict(self, data_csv, capsys):
        rc, out, err = run(
            ["estimate", "--data", str(data_csv), "--model", "anova",
             "--estimate-pi", "--format", "json"],
            capsys,
        )
        assert rc == 0
        assert "estimating pi from the sample treated fraction" in err
        assert json.loads(out)["pi"] == pytest.approx(0.5)

        rc, _, err = run(
            ["estimate", "--data", str(data_csv), "--model", "anova",
             "--pi", "0.5", "--estimate-pi"],
            capsys,
        )
        assert rc == 2
        assert "mutually exclusive" in err

    def test_pi_out_of_range(self, data_csv, capsys):
        rc, out, err = run(
            ["estimate", "--data", str(data_csv), "--model", "anova", "--pi", "1.5"], capsys
        )
        assert rc == 2
        assert out == ""
        assert "pi must lie in (0, 1), got 1.5" in err

    def test_pi_is_recorded_in_every_format(self, data_csv, capsys):
        base = ["estimate", "--data", str(data_csv), "--model", "ancova", "--format"]
        out = {}
        for pi in ([], ["--pi", "0.4"]):
            for fmt in ("json", "text", "csv"):
                rc, out[fmt, bool(pi)], _ = run(base + [fmt] + pi, capsys)
                assert rc == 0
        assert json.loads(out["json", True])["pi"] == 0.4
        text = out["text", True].splitlines()
        assert text[text.index("n          8") + 1] == "pi         0.4"
        rows = out["csv", True].splitlines()
        assert rows[rows.index("pi,0.4") - 1].startswith("ate_se,")
        for fmt in ("text", "csv"):
            without = [line for line in out[fmt, True].splitlines() if not line.startswith("pi")]
            assert out[fmt, False].splitlines() == without

    @pytest.mark.parametrize("form", ["plain", "clamped", "weighted", "known-mean", "counts"])
    def test_three_formats_render_one_record(self, data_csv, counts_csv, tmp_path, capsys, form):
        """Every CSV row holds its JSON value's repr, and every labelled text line
        holds its JSON value in the format of its ``_FIT_TEXT`` entry."""
        weighted = tmp_path / "weighted.csv"
        w = [1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.25, 2.0]
        body = (f"{r},{y},{x},{v}\n" for r, y, x, v in zip(A, Y, X, w))
        weighted.write_text("a,y,x1,w\n" + "".join(body))
        argv = {
            "plain": [str(data_csv), "--model", "1 + A + x1@0.5 + A:x1", "--pi", "0.4"],
            "clamped": [str(self.clamp_csv(tmp_path)), "--model", "1 + A + A:x1"],
            "weighted": [str(weighted), "--model", "anhecova", "--hc1", "--estimate-pi"],
            "known-mean": [str(data_csv), "--model", "anhecova", "--centering", "known-mean",
                           "--mean", "0.25"],
            "counts": [str(counts_csv), "--model", "ancova", "--family", "poisson"],
        }[form]
        out = {}
        for fmt in ("json", "text", "csv"):
            rc, out[fmt], _ = run(["estimate", "--data", *argv, "--format", fmt], capsys)
            assert rc == 0
        record = json.loads(out["json"])
        theta = record["theta_hat"]
        coefs = {"intercept": theta["alpha"], "A": theta["beta"], "x1": theta["gamma"][0],
                 "A:x1": theta["delta"][0]}
        fields = ["ate_hat", "ate_se"] + ["converged"] * (not record["converged"])
        fields += ["pi"] * (record["pi"] is not None)
        fields += ["se_clamped"] * record["se_clamped"]
        assert (form == "clamped") == record["se_clamped"]
        rows = list(csv.reader(io.StringIO(out["csv"])))
        assert rows[0] == ["term", "value"]
        assert [row[0] for row in rows[1:]] == fields + list(coefs)
        for term, value in rows[1:]:
            assert value == repr(coefs[term] if term in coefs else record[term])

        text = out["text"].splitlines()
        blank = text.index("")
        table = {label.strip(): (key, fmt) for key, label, fmt in cli._FIT_TEXT}
        labels = [line.split(None, 1)[0] for line in text[:blank]]
        shown = {"pi": record["pi"] is not None, "converged": not record["converged"],
                 "se_clamped": record["se_clamped"]}
        assert labels == [label.strip() for key, label, _ in cli._FIT_TEXT if shown.get(key, True)]
        for line in text[:blank]:
            label, value = line.split(None, 1)
            key, fmt = table[label]
            assert value == format(record[key], fmt)
        assert [line.split()[:2] for line in text[blank + 2:]] == [
            [term, format(value, ".6g")] for term, value in coefs.items()
        ]

    def test_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        """The covariate x,1 was written bare: three fields under term,value."""
        path = tmp_path / "comma.csv"
        path.write_text('a,y,"x,1"\n' + "".join(f"{a},{y},{x}\n" for a, y, x in zip(A, Y, X)))
        base = ["estimate", "--data", str(path), "--model", "anhecova", "--format"]
        rc, out, _ = run(base + ["csv"], capsys)
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {len(rows[0])} == {2}
        theta = json.loads(run(base + ["json"], capsys)[1])["theta_hat"]
        assert rows[-2:] == [["x,1", repr(theta["gamma"][0])], ["A:x,1", repr(theta["delta"][0])]]

    def test_out_file(self, data_csv, tmp_path, capsys):
        target = tmp_path / "fit.json"
        rc, out, _ = run(
            ["estimate", "--data", str(data_csv), "--model", "anova",
             "--format", "json", "--out", str(target)],
            capsys,
        )
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["spec"] == "1 + A"

    def test_out_under_missing_directory(self, data_csv, tmp_path, capsys):
        target = tmp_path / "missing" / "fit.json"
        rc, out, err = run(
            ["estimate", "--data", str(data_csv), "--model", "anova", "--out", str(target)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert f"error: cannot write {target}" in err
        assert not target.exists()

    def test_weight_column(self, tmp_path, capsys):
        path = tmp_path / "weighted.csv"
        w = [1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.25, 2.0]
        rows = ["a,y,x1,w"]
        rows += [f"{a},{y},{x},{wi}" for a, y, x, wi in zip(A, Y, X, w)]
        path.write_text("\n".join(rows) + "\n")
        rc, out, _ = run(
            ["estimate", "--data", str(path), "--model", "ancova", "--format", "json"],
            capsys,
        )
        assert rc == 0
        spec = named_spec("ANCOVA", 1).with_centering(Empirical())
        fit = fit_weighted(
            spec, Dataset(np.array(A, float), np.array(X), np.array(Y), np.array(w))
        )
        assert json.loads(out)["ate_hat"] == pytest.approx(fit.ate_hat, abs=1e-12)

    def test_poisson_family(self, counts_csv, capsys):
        a, y, x = np.loadtxt(counts_csv, delimiter=",", skiprows=1, unpack=True)
        rc, out, _ = run(
            ["estimate", "--data", str(counts_csv), "--model", "ancova",
             "--family", "poisson", "--format", "json"],
            capsys,
        )
        assert rc == 0
        spec = named_spec("ANCOVA", 1).with_centering(Empirical())
        fit = fit_poisson_glm(spec, Dataset(a, x, y))
        payload = json.loads(out)
        assert payload["ate_hat"] == pytest.approx(fit.ate_hat, rel=1e-9)
        assert payload["iterations"] == fit.iterations > 1
        assert payload["condition_number"] == fit.condition_number

    def test_hc1_is_gaussian_only(self, counts_csv, capsys):
        rc, out, err = run(
            ["estimate", "--data", str(counts_csv), "--model", "ancova",
             "--family", "poisson", "--hc1"],
            capsys,
        )
        assert (rc, out, err) == (2, "", "error: --hc1 applies only to --family gaussian\n")

    def test_unconverged_poisson_fit_is_flagged(self, counts_csv, capsys, monkeypatch):
        monkeypatch.setattr("linadjust.estimate.IRLS_MAX_ITER", 2)
        rc, out, _ = run(
            ["estimate", "--data", str(counts_csv), "--model", "ancova", "--family", "poisson"],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[lines.index("converged  False") - 1].startswith("ate_se ")
        assert "iterations 2" in lines

    def test_unconverged_poisson_fit_is_flagged_in_csv(self, counts_csv, capsys, monkeypatch):
        """A converged fit's CSV has no converged row; an unconverged one says so
        after ate_se."""
        argv = ["estimate", "--data", str(counts_csv), "--model", "ancova", "--family", "poisson",
                "--format", "csv"]
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        assert "converged" not in [row[0] for row in csv.reader(io.StringIO(out))]
        monkeypatch.setattr("linadjust.estimate.IRLS_MAX_ITER", 2)
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows[1:4]] == ["ate_hat", "ate_se", "converged"]
        assert rows[3][1] == "False"

    def test_poisson_rejects_weights(self, tmp_path, capsys):
        path = tmp_path / "wcounts.csv"
        path.write_text("a,y,x1,w\n1,3,0.1,1\n0,2,0.2,1\n1,1,0.3,2\n0,4,0.4,1\n")
        rc, _, err = run(
            ["estimate", "--data", str(path), "--model", "anova", "--family", "poisson"],
            capsys,
        )
        assert rc == 2
        assert "weight" in err

    def test_singular_design_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        rows = ["a,y,x1,x2"]
        rows += [f"{a},{y},{x},{x}" for a, y, x in zip(A, Y, X)]
        path.write_text("\n".join(rows) + "\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "ancova"], capsys)
        assert rc == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "model, columns",
        [("1 + A + age + income", "age"), ("1 + A + A:age + income", "A:age"),
         ("1 + A + age@2 + A:age + income", "A:age")],
    )
    def test_singular_design_names_the_files_columns(self, tmp_path, capsys, model, columns):
        """A constant column is named as the file names it, not X1, as the
        reports name it."""
        path = tmp_path / "trial.csv"
        rows = ["a,y,age,income"] + [f"{a},{y},30,{x}" for a, y, x in zip(A, Y, X)]
        path.write_text("\n".join(rows) + "\n")
        rc, out, err = run(["estimate", "--data", str(path), "--model", model], capsys)
        assert (rc, out, err) == (3, "", f"error: singular design; offending columns: {columns}\n")

    def test_a_failed_centering_refit_says_so(self, tmp_path, capsys):
        """The model pins age and has no A:age, so a singular design naming them
        is the full model refitted for the centering correction, and says so."""
        path = tmp_path / "trial.csv"
        rows = ["a,y,age,income"] + [f"{a},{y},30,{x}" for a, y, x in zip(A, Y, X)]
        path.write_text("\n".join(rows) + "\n")
        model = "1 + A + age@2 + income + A:income"
        rc, out, err = run(["estimate", "--data", str(path), "--model", model], capsys)
        assert (rc, out) == (3, "")
        assert err == ("error: singular design in the full model refitted for the centering"
                       " correction; offending columns: age, A:age\n")


class TestCsvValidation:
    def test_bad_treatment_value_cites_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y,x1\n1,2.0,0.1\n0,1.0,0.2\n2,3.0,0.3\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert "line 4" in err
        assert "a must be 0 or 1" in err

    def test_non_numeric_cites_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y,x1\n1,2.0,0.1\n0,oops,0.2\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert "line 3" in err and "non-numeric" in err

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("treat,y,x1\n1,2.0,0.1\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert "header must be" in err

    def test_ragged_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y,x1\n1,2.0,0.1\n0,1.0\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert "line 3" in err and "fields" in err

    def test_nonpositive_weight(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y,x1,w\n1,2.0,0.1,1.0\n0,1.0,0.2,0\n")
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert "line 3" in err and "weight" in err

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("a,y,x1\n1,2.0,nan\n0,1.0,0.2\n1,3.0,0.3\n", "line 2: x1 must be finite, got nan"),
            ("a,y,x1\n1,2.0,0.1\n\n0,-inf,0.2\n1,3.0,0.3\n", "line 4: y must be finite, got -inf"),
            ("a,y,x1,w\n1,2,0.1,1\n0,1,0.2,nan\n1,3,0.3,1\n", "line 3: w must be finite, got nan"),
            ("a,y,x1,w\n1,2,0.1,inf\n0,1,0.2,1\n1,3,0.3,1\n", "line 2: w must be finite, got inf"),
            ("a,y,x1\n1,2,nan\n2,3,0.3\n", "line 2: x1 must be finite, got nan"),
            ('a,y,x1\n1,"2\n",0.1\n0,1.0,nan\n', "line 4: x1 must be finite, got nan"),
            ('a,y,x1\n1,"2\r\n",0.1\n2,1.0,0.2\n', "line 4: a must be 0 or 1, got 2"),
            ('a,y,x1\n1,2,"\r0.1"\n0,inf,0.2\n', "line 4: y must be finite, got inf"),
        ],
        ids=[
            "covariate", "outcome-after-blank-line", "nan-weight", "inf-weight", "first-bad-line",
            "after-quoted-lf", "after-quoted-crlf", "after-quoted-cr",
        ],
    )
    def test_non_finite_cites_line_and_column(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert f"{path} {message}" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("a,y,w\n1,2,1\n", "need at least one covariate column"),
            ("a,y,x1\n", "no data rows"),
            ("a,y,x1,x2\n1,1,0,1\n0,2,1,0\n1,3,2,2\n", "need at least p + 2 = 4 rows, got 3"),
        ],
    )
    def test_csv_structure(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "header, model, rule",
        [("a,y,x,x", "ANCOVA", "covariate names must be unique, got 'x' twice"),
         ("a,y,x, x ,w", "1 + A + x", "covariate names must be unique, got 'x' twice"),
         ("a,y,A", "ANCOVA", "covariate names '1' and 'A' are reserved, got 'A'"),
         ("a,y,x,1,w", "1 + A + x", "covariate names '1' and 'A' are reserved, got '1'")],
        ids=["twice-named-model", "twice-formula", "A", "1"],
    )
    def test_header_names_every_covariate_once(self, tmp_path, capsys, header, model, rule):
        """``a,y,x,x`` fitted ANCOVA as ``1 + A + x + x`` with exit 0, and with a formula
        failed naming no file; a covariate ``A`` reported ``1 + A + A``."""
        path = tmp_path / "bad.csv"
        row = ",1" * header.count(",")
        path.write_text(header + "\n" + "".join(f"{k % 2}{row}\n" for k in range(6)))
        rc, out, err = run(["estimate", "--data", str(path), "--model", model], capsys)
        assert (rc, out, err) == (2, "", f"error: {path} line 1: {rule}\n")

    def test_missing_file(self, capsys):
        rc, _, err = run(
            ["estimate", "--data", "/does/not/exist.csv", "--model", "anova"], capsys
        )
        assert rc == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_cites_file_and_line(self, tmp_path, capsys, eol):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y,x1\n1,2.0,0.1\n0,1.0,0.2\xff\n1,3.0,0.3\n".replace(b"\n", eol))
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: {path} line 3: not UTF-8 text (byte 0xff)\n"

    def test_file_rewritten_before_the_rescan(self, tmp_path, capsys, monkeypatch):
        """A bad byte that is gone when the error rescans the file for its line
        (the file was rewritten between the two reads) is still reported, with
        no line to cite."""
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y,x1\n1,2.0,0.1\n0,1.0,0.2\xff\n1,3.0,0.3\n")
        rescan = cli._not_utf8

        def rewritten(name):
            path.write_bytes(b"a,y,x1\n1,2.0,0.1\n0,1.0,0.2\n1,3.0,0.3\n")
            return rescan(name)

        monkeypatch.setattr(cli, "_not_utf8", rewritten)
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path}: not UTF-8 text\n")


def _rows(n, weighted=False):
    """n valid data rows of fields, as strings: a, y, x1[, w]."""
    rows = []
    for i in range(n):
        row = [str(i % 2), f"{(i * 7919) % 1000 / 37 - 13.5!r}", f"{0.1 * (i % 53) - 2.6:.17g}"]
        rows.append(row + [repr(0.5 + (i % 9) / 4)] if weighted else row)
    return rows


class TestCsvReader:
    """The block reader loads what a row-at-a-time ``float`` loads, and fails alike."""

    @staticmethod
    def write(tmp_path, lines, eol="\n"):
        path = tmp_path / "data.csv"
        path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        return path

    @staticmethod
    def past_first_block():
        return cli._BLOCK_ROWS + 17

    @pytest.fixture(params=["block", "tiny-block"])
    def block_rows(self, request, monkeypatch):
        """Run each case with the reader's own block size and with 3-row blocks."""
        if request.param == "tiny-block":
            monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)

    def loaded(self, path, header, rows):
        data, names = cli._read_dataset(str(path))
        want = np.array([[float(v) for v in row] for row in rows])
        assert names == header[2 : len(header) - (header[-1] == "w")]
        assert np.array_equal(data.a, want[:, 0])
        assert np.array_equal(data.y, want[:, 1])
        k = len(names)
        assert np.array_equal(data.x, want[:, 2 : 2 + k])
        if header[-1] == "w":
            assert np.array_equal(data.weights, want[:, -1])
        else:
            assert data.weights is None

    def test_crlf(self, tmp_path, block_rows):
        rows = _rows(self.past_first_block(), weighted=True)
        header = ["a", "y", "x1", "w"]
        path = self.write(tmp_path, [",".join(header)] + [",".join(r) for r in rows], "\r\n")
        self.loaded(path, header, rows)

    def test_quoted_fields(self, tmp_path, block_rows):
        rows = _rows(self.past_first_block())
        lines = ["a,y,x1"] + [",".join(f'"{v}"' if i % 3 else v for v in r)
                              for i, r in enumerate(rows)]
        self.loaded(self.write(tmp_path, lines), ["a", "y", "x1"], rows)

    def test_blank_and_whitespace_lines_are_skipped(self, tmp_path, block_rows):
        rows = _rows(self.past_first_block())
        lines = ["a,y,x1", ""]
        for i, r in enumerate(rows):
            lines.append(",".join(r))
            if i % 997 == 5 or i == cli._BLOCK_ROWS - 1:
                lines += ["", "   ", ",,", " , ,\t"]
        self.loaded(self.write(tmp_path, lines), ["a", "y", "x1"], rows)

    def test_float_syntax(self, tmp_path, block_rows):
        rows = _rows(self.past_first_block())
        rows[3] = ["1", "1_000", " 1.5 "]
        rows[-2] = ["0", "-0.0", "+2E-3"]
        rows[-5] = ["1", "\u0661\u0662", "0.5"]  # Arabic-Indic digits, which float() reads
        lines = ["a, y ,x1"] + [",".join(r) for r in rows]
        self.loaded(self.write(tmp_path, lines), ["a", "y", "x1"], rows)

    def test_a_block_of_blank_lines_warns_nothing(self, tmp_path, capsys, block_rows):
        rows = _rows(40)
        lines = ["a,y,x1"] + [",".join(r) for r in rows[:5]] + [""] * (2 * cli._BLOCK_ROWS + 1)
        lines += [",".join(r) for r in rows[5:]]
        path = self.write(tmp_path, lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.loaded(path, ["a", "y", "x1"], rows)
            rc, _, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, err, [str(w.message) for w in caught]) == (0, "", [])

    def test_quoted_field_over_two_lines(self, tmp_path, block_rows):
        rows = _rows(self.past_first_block())
        lines = ["a,y,x1"] + [",".join(r) for r in rows]
        k = cli._BLOCK_ROWS + 5
        lines[k] = '1,"2.5\n",0.25'  # float() strips the newline
        rows[k - 1] = ["1", "2.5\n", "0.25"]
        self.loaded(self.write(tmp_path, lines), ["a", "y", "x1"], rows)

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            ("1,2.0", "expected 3 fields, got 2"),
            ("1,2.0,0.5,7", "expected 3 fields, got 4"),
            ("1,oops,0.5", "non-numeric value in ['1', 'oops', '0.5']"),
            ("1,,0.5", "non-numeric value in ['1', '', '0.5']"),
            ("2,1.0,0.5", "a must be 0 or 1, got 2"),
            ("1,+inf,0.5", "y must be finite, got inf"),
            ("0,1.0,nan", "x1 must be finite, got nan"),
            ('1,"2\n.5",0.5', "non-numeric value in ['1', '2\\n.5', '0.5']"),
            # where numpy's reader and float() or csv could disagree
            ("1,\x1c1,0.5", "non-numeric value in ['1', '\\x1c1', '0.5']"),
            ("1,2.5,1\x1f", "non-numeric value in ['1', '2.5', '1\\x1f']"),
            ("1,#1,0.5", "non-numeric value in ['1', '#1', '0.5']"),
            ("1,2," + "0" * (csv.field_size_limit() + 10),
             f"field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["short", "long", "word", "empty-field", "a-is-2", "plus-inf", "nan", "two-lines",
             "file-separator", "unit-separator", "hash", "over-limit-zeros"],
    )
    def test_bad_row_past_first_block(self, tmp_path, capsys, block_rows, bad, message):
        rows = _rows(self.past_first_block() + 40)
        k = self.past_first_block()
        lines = ["a,y,x1"] + [",".join(r) for r in rows[:k]] + [bad]
        lines += [",".join(r) for r in rows[k:]]
        line = k + 2 + bad.count("\n")  # the header is line 1; a record ends on its last line
        path = self.write(tmp_path, lines)
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path} line {line}: {message}\n")

    def test_zero_weight_past_first_block(self, tmp_path, capsys, block_rows):
        rows = _rows(self.past_first_block() + 40, weighted=True)
        rows[self.past_first_block()][-1] = "0"
        path = self.write(tmp_path, ["a,y,x1,w"] + [",".join(r) for r in rows])
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        line = self.past_first_block() + 2
        assert (rc, out, err) == (
            2, "", f"error: {path} line {line}: weight must be positive, got 0\n"
        )

    def test_row_error_wins_over_earlier_value_error(self, tmp_path, capsys, block_rows):
        rows = _rows(self.past_first_block() + 40)
        rows[3][0] = "2"
        rows[self.past_first_block()] = ["1", "2.0"]
        path = self.write(tmp_path, ["a,y,x1"] + [",".join(r) for r in rows])
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        line = self.past_first_block() + 2
        assert (rc, out, err) == (2, "", f"error: {path} line {line}: expected 3 fields, got 2\n")

    def test_non_utf8_byte_past_first_block(self, tmp_path, capsys, block_rows):
        rows = _rows(self.past_first_block() + 40)
        k = self.past_first_block()
        head = "\n".join(["a,y,x1"] + [",".join(r) for r in rows[:k]]) + "\n"
        tail = "\n".join(",".join(r) for r in rows[k:]) + "\n"
        path = tmp_path / "data.csv"
        path.write_bytes(head.encode() + b"1,2.0,0.5\xfe\n" + tail.encode())
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (
            2, "", f"error: {path} line {k + 2}: not UTF-8 text (byte 0xfe)\n"
        )

    def test_field_over_the_size_limit(self, tmp_path, capsys, block_rows):
        k = self.past_first_block()
        rows = _rows(k + 40)
        limit = csv.field_size_limit()
        rows[k][2] = "1" * (limit + 10)
        path = self.write(tmp_path, ["a,y,x1"] + [",".join(r) for r in rows])
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (
            2, "", f"error: {path} line {k + 2}: field larger than field limit ({limit})\n"
        )

    @pytest.mark.parametrize("at", [3, "past-first-block"])
    def test_row_error_before_a_non_utf8_byte_wins(self, tmp_path, capsys, block_rows, at):
        k = self.past_first_block() if at == "past-first-block" else at
        rows = [",".join(r) for r in _rows(k + 40)]
        head = "\n".join(["a,y,x1"] + rows[:k] + ["1,2.0,0.5,7"]) + "\n"
        path = tmp_path / "data.csv"
        path.write_bytes(head.encode() + b"1,\xff,0.5\n" + "\n".join(rows[k:]).encode() + b"\n")
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path} line {k + 2}: expected 3 fields, got 4\n")

    @pytest.mark.parametrize("where", ["last-line", "no-final-newline", "mid-file",
                                       "past-the-limit"])
    def test_unclosed_quote_cites_its_line(self, tmp_path, capsys, block_rows, where):
        rows = [",".join(r) for r in _rows(self.past_first_block())]
        if where == "mid-file":  # the quoted field runs to the end, within the size limit
            rows, k = rows[:25], 5
        elif where == "past-the-limit":  # and here past it, which csv reports first
            rows, k = [",".join(r) for r in _rows(csv.field_size_limit() // 8)], 5
        else:
            k = len(rows)
        lines = ["a,y,x1"] + rows[:k] + ['1,2,"4'] + rows[k:]
        path = self.write(tmp_path, lines, "" if where == "no-final-newline" else "\n")
        if where == "no-final-newline":
            path.write_bytes("\n".join(lines).encode())
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path} line {k + 2}: unexpected end of data\n")

    def test_unclosed_quote_in_the_header_past_the_limit(self, tmp_path, capsys):
        rows = [",".join(r) for r in _rows(csv.field_size_limit() // 8)]
        path = self.write(tmp_path, ['a,y,"x1'] + rows)
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        assert (rc, out, err) == (2, "", f"error: {path} line 1: unexpected end of data\n")

    def test_quote_closed_past_the_limit(self, tmp_path, capsys, block_rows):
        rows = [",".join(r) for r in _rows(csv.field_size_limit() // 8)]
        rows[5] = '1,2,"4'
        rows[-3] = '0,1",2'
        path = self.write(tmp_path, ["a,y,x1"] + rows)
        rc, out, err = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
        limit = csv.field_size_limit()
        assert (rc, out, err) == (
            2, "", f"error: {path} line 7: field larger than field limit ({limit})\n"
        )


def _reference_read(path):
    """Read a CSV one row at a time by the documented rules; the error message,
    or the dataset and covariate names.

    Each row's line is ``csv.reader.line_num``. The header rules apply
    first; then the row rules in row order (malformed CSV, a byte that is
    not UTF-8, the field count, ``float`` syntax); then the value rules
    at the first bad line's first bad column; then Dataset's rules. A
    field over csv's field limit is an error, unless the whole file read
    again with no limit ends inside that row's open quote: that is
    "unexpected end of data", however large the file.
    """
    got = _reference_rows(path)
    limit = csv.field_size_limit()
    if not (isinstance(got, str) and got.endswith(f": field larger than field limit ({limit})")):
        return got
    csv.field_size_limit(sys.maxsize)
    try:
        unlimited = _reference_rows(path)
    finally:
        csv.field_size_limit(limit)
    unclosed = got.rsplit(": ", 1)[0] + ": unexpected end of data"
    return unclosed if unlimited == unclosed else got


def _reference_rows(path):
    """``_reference_read`` but for the open quote over the field limit."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
        not_utf8 = None
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # a line ends in \n, \r or \r\n, as csv.reader counts them
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        not_utf8 = f"{path} line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})"
    names, rows, lines, line = None, [], [], 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            for row in reader:
                if any("\udc80" <= ch <= "\udcff" for ch in "".join(row)):
                    return not_utf8
                line = reader.line_num
                if names is None:
                    names = [h.strip() for h in row]
                    if len(names) < 3 or names[:2] != ["a", "y"]:
                        got = ",".join(names)
                        return f"{path}: header must be 'a,y,<covariates...>[,w]', got '{got}'"
                    if names[2:] == ["w"]:
                        return f"{path}: need at least one covariate column"
                    covariates = names[2 : len(names) - (names[-1] == "w")]
                    for j, name in enumerate(covariates):
                        if name in ("1", "A"):
                            rule = f"covariate names '1' and 'A' are reserved, got {name!r}"
                            return f"{path} line 1: {rule}"
                        if name in covariates[:j]:
                            return f"{path} line 1: covariate names must be unique, got {name!r} twice"
                elif any(v.strip() for v in row):
                    if len(row) != len(names):
                        return f"{path} line {line}: expected {len(names)} fields, got {len(row)}"
                    try:
                        rows.append([float(v) for v in row])
                    except ValueError:
                        return f"{path} line {line}: non-numeric value in {row!r}"
                    lines.append(line)
        except csv.Error as exc:
            return f"{path} line {line + 1}: {exc}"
    if names is None:
        return f"{path}: empty file"
    k = len(names) - (names[-1] == "w")
    for values, line in zip(rows, lines):
        for j, v in enumerate(values):
            if j == 0 and v not in (0.0, 1.0):
                rule = "a must be 0 or 1"
            elif not np.isfinite(v):
                rule = f"{names[j]} must be finite"
            elif j == k:
                rule = "weight must be positive" if v <= 0.0 else None
            else:
                rule = None
            if rule:
                return f"{path} line {line}: {rule}, got {v:.15g}"
    if not rows:
        return f"{path}: no data rows"
    arr = np.array(rows)
    try:
        data = Dataset(arr[:, 0], arr[:, 2:k], arr[:, 1], arr[:, k] if k < len(names) else None)
    except ValueError as exc:
        return f"{path}: {exc}"
    return _fingerprint(data, names[2:k])


def _fingerprint(data, names):
    arrays = (data.a, data.x, data.y, data.weights)
    return [None if v is None else (v.shape, v.tobytes()) for v in arrays], names


@st.composite
def _csv_files(draw):
    """CSV files of the kinds the reader meets, as bytes; "§" stands for the byte 0xff.

    A clean file has full-width rows of valid values, some quoted over
    two lines, and blank lines; any other file mixes in bad values, ragged
    rows, bytes that are not UTF-8 and malformed quoting. Some values are
    ones numpy's reader and ``float`` or ``csv`` could read differently.
    A plain file is numbers numpy's reader takes but for one such value,
    which only the reader's character guard keeps from numpy.
    """
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from(["a,y,x1", "a,y,x1,w", "a,y,x1,x2"]))
        number = st.sampled_from(["2.5", "1e3", "3", "7.25", "+0.5", "1E-2"])
        row = st.tuples(st.sampled_from(["0", "1"]), *[number] * header.count(",")).map(list)
        rows = draw(st.lists(row, min_size=1, max_size=14))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, header.count(",")))
        rows[i][j] = draw(st.sampled_from(
            ["\x1c1", "1\x1f", "#1", " 1", "1_0", '"1"', "\u0661", "nan", "inf"]
        ))
        text = eol.join([header, *map(",".join, rows)]) + draw(st.sampled_from([eol, ""]))
        return text.encode()
    header = draw(st.one_of(
        st.sampled_from(["a,y,x1", "a,y,x1,w", " a , y ,x1,x2", '"a",y,x1']),
        st.sampled_from(["a,y,x1", "a,y,x1,w", "a,y,w", "t,y,x1", 'a,y,"x1', "a,y,x§", "a,y,x1, x1",
                         "a,y,A,w"]),
    ))
    width = header.count(",") + 1
    arm = st.sampled_from(["0", "1", " 1", "0.0"])
    good = st.sampled_from(["2.5", "1e3", " 0.5 ", "1_0", "3", "7.25", "\u0661"])
    clean = draw(st.booleans())
    bad = st.nothing() if clean else st.sampled_from(
        ["2", "-1", "-0.0", "nan", "-inf", "", " ", "oops", "§", '"2"x', '"4', '"5""',
         "\x1c1", "1\x1f", "#1", "0" * (csv.field_size_limit() + 10)]
    )
    quoted = st.tuples(st.one_of(arm, good), st.sampled_from(["\n", "\r\n", "\r", ""]),
                       st.booleans())
    quoted = quoted.map(lambda t: f'"{t[1]}{t[0]}"' if t[2] else f'"{t[0]}{t[1]}"')
    value = st.one_of(good, good, quoted, bad)
    full = st.tuples(st.one_of(arm, arm, bad), *[value] * (width - 1)).map(",".join)
    ragged = st.lists(value, min_size=1, max_size=width + 1).map(",".join)
    blank = st.sampled_from(["", "  ", ",,", " , ,\t"])
    row = st.one_of(full, full, full, blank, blank if clean else ragged)
    rows = draw(st.lists(row, min_size=2, max_size=14))
    text = eol.join([header] + rows) + draw(st.sampled_from([eol, ""]))
    return text.encode().replace("§".encode(), b"\xff")


@settings(max_examples=300)
@given(text=_csv_files())
def test_block_reader_equals_a_row_at_a_time_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text)
    want = _reference_read(path)
    for block_rows in (3, cli._BLOCK_ROWS):
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows), warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy may not warn, of an all-blank block say
            try:
                got = _fingerprint(*cli._read_dataset(str(path)))
            except ValueError as exc:
                got = str(exc)
        assert got == want


def test_plain_numbers_take_the_fast_path(tmp_path):
    """A file like the benchmark's (``%.17g`` values, a weight column) is read
    by numpy's reader alone, bit for bit as the row-at-a-time reference reads it."""
    rng = np.random.default_rng(11)
    n = 20_000
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    cols = [rng.random(n) < 0.4, rng.standard_normal(n), *x.T, rng.uniform(0.5, 2.0, n)]
    path = tmp_path / "plain.csv"
    np.savetxt(path, np.column_stack(cols), fmt=["%d"] + ["%.17g"] * 5, delimiter=",",
               header="a,y,X1,X2,X3,w", comments="")
    with mock.patch.object(cli, "_walk", side_effect=AssertionError("read by csv")):
        got = _fingerprint(*cli._read_dataset(str(path)))
    assert got == _reference_read(path)


@pytest.mark.parametrize(
    ("text", "rc", "opens"),
    [
        (b"a,y,x1\n1,2,0.1\n0,1,0.2\n1,3,0.3\n0,4,0.4\n", 0, 1),
        (b"a,y,x1\n1,2,0.1\n0,1,0.2\n2,3,0.3\n0,4,0.4\n", 2, 1),
        (b"a,y,x1\n1,2,0.1\n0,1\n1,3,0.3\n0,4,0.4\n", 2, 1),
        (b"a,y,x1\n1,2,0.1\n0,1,0.2\xff\n1,3,0.3\n0,4,0.4\n", 2, 2),  # and the byte scan
    ],
    ids=["valid", "bad-value", "bad-row", "not-utf8"],
)
def test_the_csv_is_opened_once(tmp_path, capsys, monkeypatch, text, rc, opens):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    calls = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        calls.extend([file] if str(file) == str(path) else [])
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    got, _, _ = run(["estimate", "--data", str(path), "--model", "anova"], capsys)
    assert (got, len(calls)) == (rc, opens)


class TestParserReuse:
    """``main`` builds its parser once; every call parses into a fresh namespace."""

    def test_argparse_error_then_valid_command(self, data_csv, capsys):
        argv = ["estimate", "--data", str(data_csv), "--model", "anhecova", "--format", "json"]
        cli._build_parser.cache_clear()
        first = run(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(data_csv), "--model", "anova", "--family", "x"])
        assert exc.value.code == 2
        assert "invalid choice: 'x'" in capsys.readouterr().err
        assert run(argv, capsys) == first

    @pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]])
    def test_help_twice(self, capsys, argv):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: linadjust")

    def test_no_option_leaks_into_the_next_call(self, data_csv, capsys):
        argv = ["estimate", "--data", str(data_csv), "--model", "anhecova", "--format", "json"]
        spec = named_spec("ANHECOVA", 1).with_centering(Empirical())
        data = Dataset(np.array(A, float), np.array(X), np.array(Y))
        rc, out, _ = run(argv + ["--hc1", "--pi", "0.5"], capsys)
        assert rc == 0
        assert json.loads(out)["ate_se"] == fit_ols(spec, data, hc1=True).ate_se
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["ate_se"] == fit_ols(spec, data).ate_se
        assert payload["ate_se"] != fit_ols(spec, data, hc1=True).ate_se
        assert payload["pi"] is None


def _outcome(call, capsys):
    """Exit code, stdout and stderr of ``call``; a ``SystemExit``'s code is the exit code."""
    try:
        rc = call()
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _full_parse(argv) -> int:
    """The command line parsed by the full parser, then run: its report written, or
    its refusal of an input said as ``main`` says it."""
    args = cli._build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


class TestOneParse:
    """``main`` parses a command line with the named command's own parser and falls
    back to the full parser; either way it prints what a full parse prints."""

    @pytest.fixture
    def argvs(self, data_csv, tmp_path, s1_population):
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps(population_to_dict(s1_population)))
        check = ["check", "--model", "anova", "--model2", "ancova", "--pi", "0.3"]
        dispatched = [
            ["table1", "--format", "json"],
            ["table1", "--pi", "0.2", "--pi", "0.45", "--p=3", "--f", "json"],
            ["check", "--model=anova", "--model2", "1 + A + X1", "--pi=0.4", "--format", "json"],
            [*check, "--centering", "known-mean"],
            ["compare", "--population", str(pop), "--model", "ancova", "--model2", "anova"],
            ["estimate", "--data", str(data_csv), "--mod", "anhecova", "--format", "csv"],
            ["simulate", "--scenario", "1", "--n", "30", "--reps", "3", "--format", "json"],
            ["table1", "-h"],
            ["table1", "--p", "0"],
            ["check", "--mod", "anova"],
            [*check[:5], "--pi", "-0.5"],
        ]
        fallback = [[], ["-h"], ["bogus"], ["table1", "extra"], ["table1", "--", "--pi", "0.3"],
                    ["table1", "--bogus"], [*check, "--format", "json", "extra"]]
        return dispatched, fallback

    def test_main_prints_what_a_full_parse_prints(self, argvs, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in [*argvs[0], *argvs[1]]:
            want = _outcome(lambda: _full_parse(argv), capsys)
            assert _outcome(lambda: main(argv), capsys) == want, argv

    def test_the_full_parser_runs_only_on_fallback(self, argvs, capsys, monkeypatch):
        parser, calls = cli._build_parser(), []

        def parse_args(argv):
            calls.append(argv)
            return type(parser).parse_args(parser, argv)

        monkeypatch.setattr(parser, "parse_args", parse_args)
        dispatched, fallback = argvs
        for argv in [*dispatched, *fallback]:
            _outcome(lambda: main(argv), capsys)
        assert calls == fallback


class TestCheck:
    def test_dominates_text(self, capsys):
        rc, out, _ = run(
            ["check", "--model", "1 + A + X + A:X", "--model2", "1 + A", "--pi", "0.3"],
            capsys,
        )
        assert rc == 0
        assert "Dominates" in out
        assert "Theorem2" in out

    def test_not_guaranteed_for_reversed_pair(self, capsys):
        rc, out, _ = run(
            ["check", "--model", "1 + A", "--model2", "1 + A + X + A:X", "--pi", "0.3"],
            capsys,
        )
        assert rc == 0
        assert "NotGuaranteed" in out

    def test_known_mean_json(self, capsys):
        rc, out, _ = run(
            ["check", "--model", "1 + A + A:X", "--model2", "1 + A",
             "--pi", "0.4", "--centering", "known-mean", "--p", "2", "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Dominates"
        assert payload["theorem"] == "Theorem1-interaction-superset"
        assert payload["model1"] == "1 + A + A:X1 + A:X2"

    def test_non_integer_p(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", "ancova", "--model2", "anova", "--pi", "0.3",
                  "--p", "abc"])
        assert exc.value.code == 2
        assert "argument --p: expected an integer, got 'abc'" in capsys.readouterr().err

    def test_identical_models_rejected(self, capsys):
        rc, _, err = run(
            ["check", "--model", "anova", "--model2", "anova", "--pi", "0.3"], capsys
        )
        assert rc == 2
        assert "identical" in err


class TestCompare:
    @pytest.fixture
    def pop_file(self, tmp_path, s1_population):
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(population_to_dict(s1_population)))
        return path

    def test_report(self, pop_file, capsys):
        rc, out, _ = run(
            ["compare", "--population", str(pop_file),
             "--model", "anhecova", "--model2", "anova", "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["beta_ate"] == pytest.approx(2.0, abs=1e-12)
        assert payload["v_known_mean"]["model1"] == pytest.approx(4.761905, abs=1e-5)
        assert payload["theorem2_gap"] == pytest.approx(
            payload["v_centered"]["gap"], abs=1e-9
        )
        assert payload["verdict_centered"]["verdict"] == "Dominates"

    def test_pi_override_and_text(self, pop_file, capsys):
        rc, out, _ = run(
            ["compare", "--population", str(pop_file),
             "--model", "ancova", "--model2", "anhecova", "--pi", "0.5"],
            capsys,
        )
        assert rc == 0
        assert "pi=0.5" in out
        assert "EqualVariance" in out

    def test_condition_failure_is_reported_not_fatal(self, pop_file, capsys):
        rc, out, _ = run(
            ["compare", "--population", str(pop_file),
             "--model", "ancova", "--model2", "anova"],
            capsys,
        )
        assert rc == 0
        assert "n/a (condition fails)" in out

    @pytest.mark.parametrize("pair", [("1 + A + X1@1e9", "anova"), ("1 + A", "1 + A + X")])
    def test_text_columns_widen_to_their_longest_value(self, tmp_path, capsys, pair):
        """A 14-character value ran into the value before it in the 14-wide columns
        of the V/V~ matrix; each column is now its longest value plus a space."""
        path = tmp_path / "pop.json"
        path.write_text('{"pi": 0.3, "sigma": [[1.3]], "omega1": [0.0101234], "omega0": '
                        '[0.0223457], "mu1": 1.0, "mu0": 0.0, "q1": 2.0, "q0": 1.0}')
        base = ["compare", "--population", str(path), "--model", pair[0], "--model2", pair[1],
                "--format"]
        rc, out, _ = run(base + ["text"], capsys)
        assert rc == 0
        payload = json.loads(run(base + ["json"], capsys)[1])
        header, *lines = out.splitlines()[5:8]
        ends = [m.end() for m in re.finditer(r"\S+", header)]
        assert header.split() == ["model1", "model2", "gap(2-1)"] and ends[0] == 22 + 14
        labels = {"V (known mean)": "v_known_mean", "V~ (centered)": "v_centered"}
        assert [line[:22] for line in lines] == [f"{label:<22}" for label in labels]
        rows = [[format(payload[key][col], ".8g") for col in ("model1", "model2", "gap")]
                for key in labels.values()]
        assert max(len(v) for row in rows for v in row) == 14  # a value fills its column
        _assert_sliced(lines, [22, *ends], rows, right=True)

    @pytest.mark.parametrize(
        "pair",
        [("anhecova", "anova"), ("anhecova", "1 + A + A:X1 + A:X2"), ("ancova", "anova"),
         ("1 + A + X1@0.5 + X2 + A:X2", "anhecova"), ("anova", "ancova")],
    )
    def test_each_model_is_solved_once(self, tmp_path, capsys, pair):
        """The distinct models among the pair and the full model (ANHECOVA) are solved
        once each: two where the pair holds the full model, else three."""
        pop = random_moment_population(np.random.default_rng(4), p=2)
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(population_to_dict(pop)))
        argv = ["compare", "--population", str(path), "--model", pair[0], "--model2", pair[1],
                "--format", "json"]
        with mock.patch.object(population, "solve_population",
                               wraps=population.solve_population) as solve:
            rc, out, _ = run(argv, capsys)
        assert (rc, solve.call_count) == (0, 2 if "anhecova" in pair else 3)
        payload = json.loads(out)
        spec1, spec2 = (cli._parse_model(m, ["X1", "X2"]) for m in pair)
        try:
            gap = variance_gap_theorem2(spec1, spec2, pop)
        except ValueError:
            gap = None
        v1, v2 = (asymptotic_variance_known_mean(s, pop) for s in (spec1, spec2))
        vc1, vc2 = (asymptotic_variance_centered(s, pop) for s in (spec1, spec2))
        assert payload["v_known_mean"] == {"model1": v1, "model2": v2, "gap": v2 - v1}
        assert payload["v_centered"] == {"model1": vc1, "model2": vc2, "gap": vc2 - vc1}
        assert payload["theorem2_gap"] == gap

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        path.write_text("{not json")
        rc, _, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert rc == 2
        assert "invalid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_non_square_sigma(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        record = {"pi": 0.3, "sigma": [[1.0, 0.0]], "omega1": [1.0], "omega0": [1.0],
                  "mu1": 1.0, "mu0": 0.0, "q1": 3.0, "q0": 2.0}
        path.write_text(json.dumps(record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: sigma must be square, got shape (1, 2)\n"

    def test_sigma_not_positive_definite_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        record = {"pi": 0.3, "sigma": [[1.0, 3.0], [3.0, 2.0]], "omega1": [1.0, 0.0],
                  "omega0": [0.5, 0.0], "mu1": 1.0, "mu0": 0.0, "q1": 3.0, "q0": 2.0}
        path.write_text(json.dumps(record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out, err) == (2, "", f"error: {path}: sigma must be positive definite\n")

    def test_impossible_second_moment_names_the_file(self, tmp_path, capsys):
        """q1 = 0 < mu1^2: every variance used to print as 0, with exit 0."""
        path = tmp_path / "pop.json"
        record = {"pi": 0.5, "sigma": [[1]], "omega1": [0.5], "omega0": [0.2],
                  "mu1": 3, "mu0": 1, "q1": 0, "q0": 0}
        path.write_text(json.dumps(record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == (f"error: {path}: q1 = 0.0 is not at least mu1^2 + omega1' sigma^-1 omega1 = 9.25:"
                       " no distribution has these moments in arm 1\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [("sigma", [[float("inf")]], "sigma must be finite"),
         ("sigma", [[float("nan")]], "sigma must be finite"),
         ("omega1", [float("nan")], "omega1 must be finite"),
         ("omega0", [float("-inf")], "omega0 must be finite"),
         ("mu1", float("nan"), "mu1 must be finite, got nan"),
         ("q1", float("inf"), "q1 must be finite, got inf"),
         ("q0", float("nan"), "q0 must be finite, got nan")],
        ids=["inf-sigma", "nan-sigma", "nan-omega1", "inf-omega0", "nan-mu1", "inf-q1",
             "nan-q0"],
    )
    def test_non_finite_record_names_the_field(self, tmp_path, capsys, field, value, message):
        """An infinite sigma or q1 printed NaN or Infinity variances with exit 0,
        a NaN sigma was called asymmetric and a NaN omega1 or mu1 was blamed on q1."""
        path = tmp_path / "pop.json"
        record = {"pi": 0.3, "sigma": [[1.0]], "omega1": [1.0], "omega0": [0.5],
                  "mu1": 1.0, "mu0": 0.0, "q1": 3.0, "q0": 2.0, field: value}
        path.write_text(json.dumps(record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "record, message",
        [({"pi": "0.3"}, "pi must be a number, got '0.3'"),
         ({"mu1": True}, "mu1 must be a number, got True"),
         ({"q0": None}, "q0 must be a number, got None"),
         ({"sigma": [["1"]]}, "sigma must be a list of lists of numbers, got [['1']]"),
         ({"sigma": [1.0]}, "sigma must be a list of lists of numbers, got [1.0]"),
         ({"omega1": ["0.5"]}, "omega1 must be a list of numbers, got ['0.5']"),
         ({"omega0": 0.5}, "omega0 must be a list of numbers, got 0.5"),
         ({"mu0": 10**400}, f"mu0 must be a number, got {10**400}"),
         ([1, 2], "population record must be a JSON object, got list")],
        ids=["string-pi", "bool-mu1", "null-q0", "string-sigma", "flat-sigma", "string-omega1",
             "scalar-omega0", "huge-mu0", "array"],
    )
    def test_record_takes_numbers_only(self, tmp_path, capsys, record, message):
        """Strings that float() parses and a bool read as 1 gave variances with
        exit 0; a top-level array exited 2 with a message about list indices."""
        path = tmp_path / "pop.json"
        good = {"pi": 0.3, "sigma": [[1]], "omega1": [0.5], "omega0": [0.2],
                "mu1": 3, "mu0": 1, "q1": 10, "q0": 2}
        path.write_text(json.dumps({**good, **record} if isinstance(record, dict) else record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "1 + A + X1", "--model2", "1 + A"],
            capsys,
        )
        assert (rc, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("p", [1, 2])
    def test_verdict_records_are_the_verdicts_as_dicts(self, tmp_path, capsys, p):
        """compare's and check's verdict records equal dataclasses.asdict of the
        verdicts, for each Table 1 pair under both centerings."""
        pop = random_moment_population(np.random.default_rng(11), p=p)
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(population_to_dict(pop)))
        names = [f"X{j + 1}" for j in range(p)]
        for f1, f2 in _TABLE1_ROWS:
            spec1, spec2 = parse_formula(f1, names), parse_formula(f2, names)
            argv = ["compare", "--population", str(path), "--model", f1, "--model2", f2,
                    "--format", "json"]
            rc, out, _ = run(argv, capsys)
            payload = json.loads(out)
            for key, centering, check in (
                ("verdict_known_mean", "known-mean", check_known_mean),
                ("verdict_centered", "empirical", check_centered),
            ):
                want = asdict(check(spec1, spec2, pop.pi))
                assert (rc, payload[key]) == (0, want)
                argv = ["check", "--model", f1, "--model2", f2, "--pi", repr(pop.pi),
                        "--p", str(p), "--centering", centering, "--format", "json"]
                rc, out, _ = run(argv, capsys)
                record = json.loads(out)
                assert (rc, record.pop("pi")) == (0, pop.pi)
                assert {k: v for k, v in record.items() if not k.startswith("model")} == want

    def test_singular_normal_equations_name_the_file(self, tmp_path, capsys):
        """A record whose pi·sigma underflows is invalid input, exit 2, like the
        record's other faults."""
        path = tmp_path / "pop.json"
        record = {"pi": 0.3, "sigma": [[5e-324]], "omega1": [0.0], "omega0": [0.0],
                  "mu1": 1.0, "mu0": 0.0, "q1": 3.0, "q0": 2.0}
        path.write_text(json.dumps(record))
        rc, out, err = run(
            ["compare", "--population", str(path), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: population normal equations are singular\n"

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_cites_file_and_line(self, pop_file, capsys, eol):
        pop_file.write_bytes(pop_file.read_bytes().replace(b"{", b"{" + eol + b"\xff", 1))
        rc, out, err = run(
            ["compare", "--population", str(pop_file), "--model", "anova", "--model2", "ancova"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: {pop_file} line 2: not UTF-8 text (byte 0xff)\n"


class TestSimulate:
    def test_csv_matches_library(self, capsys):
        rc, out, _ = run(
            ["simulate", "--scenario", "1", "--reps", "12", "--n", "60",
             "--pis", "0.3,0.6", "--seed", "7"],
            capsys,
        )
        assert rc == 0
        models = [named_spec(m, 1) for m in ("ANOVA", "ANCOVA", "ANHECOVA")]
        want = run_grid(scenario(1, n=60), models, [0.3, 0.6], 12, seed=7).to_csv()
        assert out == want

    def test_pi_range_and_custom_models(self, capsys):
        rc, out, _ = run(
            ["simulate", "--scenario", "1", "--reps", "4", "--n", "40",
             "--pis", "0.2:0.4:0.1", "--models", "1 + A,1 + A + X1", "--format", "json"],
            capsys,
        )
        assert rc == 0
        cells = json.loads(out)
        assert len(cells) == 6
        assert {c["pi"] for c in cells} == {0.2, 0.3, 0.4}

    def test_pi_range_csv_equals_pi_list(self, capsys):
        base = ["simulate", "--scenario", "1", "--reps", "4", "--n", "40", "--pis"]
        rc, ranged, _ = run(base + ["0.2:0.4:0.1"], capsys)
        assert rc == 0
        rc, listed, _ = run(base + ["0.2,0.3,0.4"], capsys)
        assert rc == 0
        assert ranged == listed

    @pytest.mark.parametrize(
        "pis, want",
        [("0.3:0.33:0.05", [0.3]),
         ("0.1:0.82:0.25", [0.1, 0.35, 0.6]),
         ("0.1:0.9:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])],
    )
    def test_pi_range_stops_at_stop(self, capsys, pis, want):
        """The range's half step of slack ran past stop: 0.3:0.33:0.05 ran pi 0.35 and
        0.1:0.82:0.25 ran pi 0.85."""
        rc, out, _ = run(["simulate", "--scenario", "1", "--reps", "2", "--n", "40",
                          "--models", "1 + A", "--format", "json", "--pis", pis], capsys)
        assert (rc, [c["pi"] for c in json.loads(out)]) == (0, want)

    def test_covariate_assignment_note(self, capsys):
        rc, out, err = run(
            ["simulate", "--scenario", "3", "--reps", "4", "--n", "200", "--pis", "0.3"],
            capsys,
        )
        assert rc == 0
        assert "--pis ignored" in err
        # the pi field is empty when assignment follows the covariate
        assert ",," in out.splitlines()[1]

    def test_text_format(self, capsys):
        rc, out, _ = run(
            ["simulate", "--scenario", "1", "--reps", "4", "--n", "40",
             "--pis", "0.5", "--format", "text"],
            capsys,
        )
        assert rc == 0
        assert out.splitlines()[0].startswith("scenario")

    def test_text_columns_widen_to_their_longest_value(self, capsys):
        """A 27-character model ran into the 24-wide model column, and pi 0.123457
        into the 6-wide pi column; each column is now its longest value plus a space."""
        base = ["simulate", "--scenario", "1", "--reps", "3", "--n", "40", "--pis",
                "0.123456789,0.5", "--models", "1 + A + X1@0.5 + A:X1@-0.25,1 + A", "--format"]
        rc, out, _ = run(base + ["text"], capsys)
        assert rc == 0
        cells = json.loads(run(base + ["json"], capsys)[1])
        header, *lines = out.splitlines()
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        assert header.split() == list(REPORT_FIELDS)
        assert starts[:5] == [0, 10, 38, 47, 53]  # model and pi widened, the rest as they were
        fmts = {"pi": "g", "bias": ".6f", "sd": ".6f", "mc_se": ".6f", "fail_rate": ".4f"}
        assert len(cells) == 4
        rows = [[format(cell[name], fmts.get(name, "")) for name in REPORT_FIELDS]
                for cell in cells]
        _assert_sliced(lines, [*starts, None], rows)

    def test_argparse_rejections(self, capsys):
        for argv in (
            ["simulate", "--scenario", "9", "--reps", "4"],
            ["simulate", "--scenario", "1", "--reps", "0"],
            ["simulate", "--scenario", "1", "--reps", "-3"],
            ["simulate", "--scenario", "1", "--reps", "4", "--threads", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    @pytest.mark.parametrize(
        "pis, message",
        [
            ("0.1:0.9", "pi range must be start:stop:step, got '0.1:0.9'"),
            ("a:b:c", "pi range must be numeric, got 'a:b:c'"),
            ("0.9:0.1:0.1", "pi range must increase, got '0.9:0.1:0.1'"),
        ],
    )
    def test_bad_pi_range(self, capsys, pis, message):
        rc, out, err = run(
            ["simulate", "--scenario", "1", "--reps", "2", "--n", "40", "--pis", pis], capsys
        )
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_negative_seed_is_named(self, capsys):
        rc, out, err = run(["simulate", "--scenario", "1", "--reps", "2", "--seed", "-3"], capsys)
        assert (rc, out, err) == (2, "", "error: seed: expected non-negative integer, got -3\n")

    @pytest.mark.parametrize("models", [",", ""])
    def test_empty_model_list(self, capsys, models):
        rc, out, err = run(
            ["simulate", "--scenario", "1", "--reps", "2", "--n", "40", "--models", models], capsys
        )
        assert (rc, out, err) == (2, "", "error: --models is empty\n")

    def test_empty_pis_is_rejected(self, capsys):
        rc, out, err = run(["simulate", "--scenario", "1", "--reps", "4", "--pis="], capsys)
        assert (rc, out) == (2, "")
        assert err == "error: assignment probabilities must lie in (0, 1), got ''\n"

    def test_pis_with_empty_item_is_rejected(self, capsys):
        rc, out, err = run(
            ["simulate", "--scenario", "1", "--reps", "4", "--pis", "0.5,,"], capsys
        )
        assert (rc, out) == (2, "")
        assert err == "error: --pis must be comma-separated numbers, got '0.5,,'\n"

    def test_bad_pi_values(self, capsys):
        rc, _, err = run(
            ["simulate", "--scenario", "1", "--reps", "4", "--pis", "0,0.5"], capsys
        )
        assert rc == 2
        assert "(0, 1)" in err


class TestTable1:
    def test_text(self, capsys):
        rc, out, _ = run(["table1", "--pi", "0.3"], capsys)
        assert rc == 0
        assert "named-estimator claims:" in out
        assert "LDV vs DiD" in out
        assert "not certified" in out

    def test_json(self, capsys):
        rc, out, _ = run(["table1", "--pi", "0.5", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 5
        assert payload["rows"][1]["empirical"] == "EqualVariance"

    def test_text_columns_slice_at_their_headers(self, capsys):
        base = ["table1", "--pi", "0.3", "--p", "2", "--format"]
        rc, out, _ = run(base + ["text"], capsys)
        assert rc == 0
        payload = json.loads(run(base + ["json"], capsys)[1])
        header, *lines = out.splitlines()[2 : 3 + len(payload["rows"])]
        heads = ("model1", "model2", "known mean", "centered")
        starts = [header.index(h) for h in heads]
        assert starts == [0, 28, 56, 72] and len(header) == 88
        keys = ("model1", "model2", "known_mean", "empirical")
        _assert_sliced(lines, [*starts, None], [[r[k] for k in keys] for r in payload["rows"]])


@pytest.mark.parametrize("command", ["estimate", "check", "compare", "simulate", "table1"])
def test_out_file_equals_stdout(command, data_csv, s1_population, tmp_path, capsys):
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps(population_to_dict(s1_population)))
    argv = {
        "estimate": ["estimate", "--data", str(data_csv), "--model", "anhecova", "--format", "csv"],
        "check": ["check", "--model", "ancova", "--model2", "anova", "--pi", "0.3"],
        "compare": ["compare", "--population", str(pop), "--model", "anhecova", "--model2", "anova"],
        "simulate": ["simulate", "--scenario", "1", "--reps", "4", "--n", "40", "--pis", "0.5"],
        "table1": ["table1", "--format", "json"],
    }[command]
    rc, printed, _ = run(argv, capsys)
    assert rc == 0
    target = tmp_path / "report.out"
    rc, out, _ = run(argv + ["--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == printed


def test_cli_import_loads_no_scipy(data_csv, s1_population, tmp_path):
    """Every command imports no third-party module but the declared dependencies."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = sorted(re.match(r"[\w.-]+", dep)[0] for dep in deps)
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps(population_to_dict(s1_population)))
    commands = [
        ["estimate", "--data", str(data_csv), "--model", "anhecova"],
        ["check", "--model", "ancova", "--model2", "anova", "--pi", "0.3"],
        ["compare", "--population", str(pop), "--model", "anhecova", "--model2", "anova"],
        ["table1"],
    ]
    commands += [
        ["simulate", "--scenario", str(k), "--reps", "4", "--n", "200", "--pis", "0.5"]
        for k in (1, 2, 3, 4)
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from linadjust.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        # Cython's runtime registers file-less modules (cython_runtime, _cython_3_*)
        "new = [m for m in set(sys.modules) - before if getattr(sys.modules[m], '__file__', None)]\n"
        "tops = {m.split('.')[0] for m in new}\n"
        "print(json.dumps([codes, sorted(tops - set(sys.stdlib_module_names) - {'linadjust'})]))"
    )
    path = [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    codes, third_party = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    assert third_party == declared


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "linadjust.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2

    # The `linadjust` executable exists only after an install; what the
    # source tree owns is the [project.scripts] declaration and its target.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["linadjust"] == "linadjust.cli:main"

    # Run the declared target the way the generated launcher does.
    module, func = scripts["linadjust"].split(":")
    launcher = (
        f"import sys; from {module} import {func}; "
        "sys.argv = ['linadjust', 'table1', '--format', 'json']; "
        f"sys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi"] == 0.3


@pytest.mark.skipif(
    shutil.which("linadjust") is None,
    reason='linadjust is not on PATH; run `pip install --no-build-isolation -e ".[test]"`',
)
def test_installed_console_script():
    proc = subprocess.run(
        ["linadjust", "table1", "--format", "json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi"] == 0.3
