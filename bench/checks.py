"""Correctness checks for the benchmark's outputs.

Every check compares a program output with a computation made apart
from the program (a numpy least-squares or Newton fit, an explicit HC0
sandwich, a closed-form variance) or with a property the method must
have. None compares with a saved copy of earlier output. Each check
returns a ``Check``; the benchmark fails when any of them fails.

Statistical checks use tolerances fixed before any run: the two-sided
level ``P_FALSE`` of a ``K_SE``-sigma normal deviation, taken from the t
distribution for a mean and the chi-square distribution for a variance
at the replications achieved, plus, for n * SD^2, a finite-sample
allowance of 2 / (n * min(pi, 1 - pi)) for the O(1/n) terms the
asymptotic variance leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORACLE_RTOL = 1e-8
K_SE = 5.0
P_FALSE = math.erfc(K_SE / math.sqrt(2.0))  # 5.7e-7
K_TRUTH = 4.0
SE_RATIO_TOL = 0.10
CALCULUS_RTOL = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "skipped": self.skipped, "detail": self.detail}


def _close(a, b, rtol: float) -> tuple[bool, float]:
    """Relative agreement of two arrays, scaled by the larger magnitude of b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False, math.inf
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return False, math.inf
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    err = float(np.abs(a - b).max(initial=0.0)) / scale
    return err <= rtol, err


# ---------------------------------------------------------------------------
# Oracle fits


@dataclass(frozen=True)
class Spec:
    """The benchmark's own statement of a model, apart from linadjust's ModelSpec.

    ``gamma`` and ``delta`` hold one entry per covariate: None for a free
    coefficient, else the value it is pinned at. ``mu`` is the known
    covariate mean, or None for centering at the sample mean.
    """

    gamma: tuple
    delta: tuple
    mu: tuple | None = None

    def label(self) -> str:
        free = ["X" if g is None else "" for g in self.gamma] + [
            "AX" if d is None else "" for d in self.delta
        ]
        return "".join(free) or "none"


@dataclass
class OracleFit:
    coef: np.ndarray  # free coefficients in design order
    vcov: np.ndarray
    ate_hat: float
    ate_se: float


def _design(spec: Spec, a, x):
    """Design columns [1, A, free Xc_j, free A*Xc_j] and the fixed-part offset."""
    xc = x - (np.asarray(spec.mu, dtype=float) if spec.mu is not None else x.mean(axis=0))
    cols = [np.ones_like(a), a]
    offset = np.zeros_like(a)
    for j, g in enumerate(spec.gamma):
        if g is None:
            cols.append(xc[:, j])
        else:
            offset = offset + g * xc[:, j]
    for j, d in enumerate(spec.delta):
        if d is None:
            cols.append(a * xc[:, j])
        else:
            offset = offset + d * a * xc[:, j]
    return np.stack(cols, axis=1), offset


def _delta(spec: Spec, coef) -> np.ndarray:
    n_gamma = sum(g is None for g in spec.gamma)
    free = iter(coef[2 + n_gamma :])
    return np.array([next(free) if d is None else d for d in spec.delta])


def _least_squares(spec: Spec, a, x, y, w):
    """Free coefficients and HC0 covariance by numpy lstsq and an explicit sandwich."""
    z, off = _design(spec, a, x)
    wt = np.ones_like(y) if w is None else w
    sw = np.sqrt(wt)
    coef = np.linalg.lstsq(z * sw[:, None], (y - off) * sw, rcond=None)[0]
    resid = y - off - z @ coef
    bread = np.linalg.inv(z.T @ (z * wt[:, None]))
    score = z * (wt * resid)[:, None]
    return coef, bread @ (score.T @ score) @ bread


def oracle_linear(spec: Spec, full_spec: Spec, a, x, y, w=None) -> OracleFit:
    """Restricted (weighted) least squares with the HC0 sandwich.

    Under empirical centering a spec with nonzero interactions has the
    centering correction delta_s' Sigma_hat (2 delta_f - delta_s) / n
    added to the treatment-coefficient variance, with delta_f from the
    all-free ``full_spec`` fitted on the same data and weights and
    Sigma_hat the unweighted covariance of x (ddof 0); a negative total
    clamps at zero.
    """
    coef, vcov = _least_squares(spec, a, x, y, w)
    var_b = float(vcov[1, 1])
    delta_s = _delta(spec, coef)
    if spec.mu is None and np.any(delta_s != 0.0):
        delta_f = _delta(full_spec, _least_squares(full_spec, a, x, y, w)[0])
        sigma = np.atleast_2d(np.cov(x, rowvar=False, ddof=0))
        var_b = max(var_b + float(delta_s @ sigma @ (2.0 * delta_f - delta_s)) / len(y), 0.0)
    return OracleFit(coef, vcov, float(coef[1]), math.sqrt(var_b))


def oracle_poisson(spec: Spec, a, x, y) -> OracleFit:
    """Poisson log-link MLE by damped Newton steps, with the HC0 sandwich at the optimum."""
    z, off = _design(spec, a, x)
    coef = np.zeros(z.shape[1])
    coef[0] = math.log(y.mean()) - float(off.mean())

    def loglik(c):
        eta = z @ c + off
        return float(y @ eta - np.exp(eta).sum())

    ll = loglik(coef)
    for _ in range(200):
        mu = np.exp(z @ coef + off)
        step = np.linalg.solve(z.T @ (z * mu[:, None]), z.T @ (y - mu))
        t = 1.0
        while loglik(coef + t * step) < ll - 1e-12 * abs(ll) and t > 1e-8:
            t *= 0.5
        coef = coef + t * step
        ll = loglik(coef)
        if np.abs(t * step).max() < 1e-13 * (1.0 + np.abs(coef).max()):
            break
    mu = np.exp(z @ coef + off)
    bread = np.linalg.inv(z.T @ (z * mu[:, None]))
    score = z * (y - mu)[:, None]
    vcov = bread @ (score.T @ score) @ bread
    return OracleFit(coef, vcov, float(coef[1]), math.sqrt(max(float(vcov[1, 1]), 0.0)))


def check_fit(name: str, fit, oracle: OracleFit) -> Check:
    """A program FitResult against an oracle fit, to ORACLE_RTOL relative."""
    worst = 0.0
    for label, got, want in (
        ("coef", fit.free_coefs, oracle.coef),
        ("vcov", fit.vcov, oracle.vcov),
        ("ate_hat", fit.ate_hat, oracle.ate_hat),
        ("ate_se", fit.ate_se, oracle.ate_se),
    ):
        ok, err = _close(got, want, ORACLE_RTOL)
        worst = max(worst, err)
        if not ok:
            return Check(name, False, f"{label} differs from the oracle by {err:.3g} relative")
    return Check(name, True, f"max relative error {worst:.3g}")


def check_estimate_json(name: str, payload: dict, oracle: OracleFit, spec: Spec, n: int) -> Check:
    """``linadjust estimate --format json`` output against an oracle fit."""
    theta = payload.get("theta_hat", {})
    try:
        got = [payload["ate_hat"], payload["ate_se"], theta["alpha"], theta["beta"]]
        gamma = np.asarray(theta["gamma"], dtype=float)
        delta = np.asarray(theta["delta"], dtype=float)
    except (KeyError, TypeError):
        return Check(name, False, "estimate JSON lacks ate_hat, ate_se or theta_hat")
    n_gamma = sum(g is None for g in spec.gamma)
    free_g = iter(oracle.coef[2 : 2 + n_gamma])
    want_gamma = [next(free_g) if g is None else g for g in spec.gamma]
    want_delta = _delta(spec, oracle.coef)
    want = [oracle.ate_hat, oracle.ate_se, oracle.coef[0], oracle.coef[1]]
    pairs = list(zip(("ate_hat", "ate_se", "alpha", "beta"), got, want))
    for label, g, w in pairs + [("gamma", gamma, want_gamma), ("delta", delta, want_delta)]:
        ok, err = _close(g, w, ORACLE_RTOL)
        if not ok:
            return Check(name, False, f"{label} differs from the oracle by {err:.3g} relative")
    if payload.get("n_used") != n:
        return Check(name, False, f"n_used {payload.get('n_used')} != {n} rows")
    return Check(name, True)


# ---------------------------------------------------------------------------
# Monte Carlo checks


def finite_allowance(n: int, pi: float) -> float:
    """Relative room for the O(1/n) terms of a finite-sample variance."""
    return 2.0 / (n * min(pi, 1.0 - pi))


def check_pooled_variance(name: str, estimates, n: int, v_exact: float, pi: float) -> Check:
    """n * SD^2 over pooled replications against a closed-form asymptotic variance."""
    est = np.asarray(estimates, dtype=float)
    r = len(est)
    if r < 3 or not np.isfinite(est).all():
        return Check(name, False, f"{r} replications, or some not finite")
    from scipy import stats  # only the parent process checks; workers stay lean

    nv = n * float(est.var(ddof=1))
    df = r - 1
    allow = finite_allowance(n, pi)
    lo = stats.chi2.ppf(P_FALSE / 2, df) / df - allow
    hi = stats.chi2.isf(P_FALSE / 2, df) / df + allow
    ratio = nv / v_exact
    detail = f"n*SD^2 {nv:.5g} vs {v_exact:.5g} (ratio {ratio:.4f}, window [{lo:.4f}, {hi:.4f}], R={r})"
    return Check(name, lo <= ratio <= hi, detail)


def check_pooled_mean(name: str, estimates, target: float) -> Check:
    """The pooled mean estimate lies within the t quantile of Monte Carlo SEs of the target."""
    est = np.asarray(estimates, dtype=float)
    r = len(est)
    if r < 3 or not np.isfinite(est).all():
        return Check(name, False, f"{r} replications, or some not finite")
    from scipy import stats

    se = float(est.std(ddof=1)) / math.sqrt(r)
    z = (float(est.mean()) - target) / se if se > 0 else math.inf
    k = stats.t.isf(P_FALSE / 2, r - 1)
    return Check(name, abs(z) <= k, f"mean {est.mean():.6g} vs {target:.6g} (t {z:+.2f}, tol {k:.2f}, R={r})")


def check_adjusted_loses(
    name: str, est_adjusted, est_unadjusted, n: int, v_adjusted: float, v_unadjusted: float
) -> Check:
    """The adjusted model's pooled n * SD^2 exceeds the unadjusted one's.

    Applied only when the replications can resolve the sign: the
    closed-form gap must be at least K_SE standard errors of the
    observed gap. Full-length runs always reach that (see
    ``workloads.McN200.min_cycles``); tiny self-test runs may not, and
    the check is then reported as skipped.
    """
    a = np.asarray(est_adjusted, dtype=float)
    u = np.asarray(est_unadjusted, dtype=float)
    r = min(len(a), len(u))
    gap = v_adjusted - v_unadjusted
    se_gap = math.sqrt(2.0 / max(r - 1, 1)) * math.hypot(v_adjusted, v_unadjusted)
    observed = n * (float(a.var(ddof=1)) - float(u.var(ddof=1)))
    detail = f"observed gap {observed:.4g}, exact {gap:.4g}, SE {se_gap:.3g}, R={r}"
    if gap < K_SE * se_gap:
        return Check(name, True, detail + " (not powered at this size)", skipped=True)
    return Check(name, observed > 0.0, detail)


def check_se_ratio(name: str, mean_se: float, sd: float, reps: int) -> Check:
    """Mean reported SE over the sampling SD lies within SE_RATIO_TOL of 1."""
    if not (math.isfinite(mean_se) and math.isfinite(sd)) or sd <= 0 or reps < 3:
        return Check(name, False, f"mean_se {mean_se}, sd {sd}, R={reps}")
    ratio = mean_se / sd
    tol = max(SE_RATIO_TOL, K_SE / math.sqrt(2.0 * (reps - 1)))
    return Check(name, abs(ratio - 1.0) <= tol, f"SE/SD {ratio:.4f} (tol {tol:.3f}, R={reps})")


def check_cell(name: str, cell, beta: float | None) -> Check:
    """One MonteCarloCell: finite, no drops, and aggregates equal to its estimates.

    ``beta`` is the effect the bias is measured against when the
    benchmark knows it; otherwise only the SD and SEs are checked.
    """
    est = cell.estimates
    if est is None or len(est) != cell.reps:
        return Check(name, False, f"kept {0 if est is None else len(est)} of {cell.reps} estimates")
    fields = (cell.bias, cell.sd, cell.mc_se, cell.mean_se, cell.fail_rate)
    if not all(v is not None and math.isfinite(v) for v in fields) or not np.isfinite(est).all():
        return Check(name, False, "non-finite aggregate or estimate")
    sd = float(est.std(ddof=1))
    want = [sd, sd / math.sqrt(len(est))]
    got = [cell.sd, cell.mc_se]
    if beta is not None:
        want.append(float(est.mean()) - beta)
        got.append(cell.bias)
    ok, err = _close(got, want, 1e-12)
    if not ok:
        return Check(name, False, f"aggregates differ from the kept estimates by {err:.3g}")
    return Check(name, True)


def check_same_report(name: str, first, again) -> Check:
    """A repeated run_grid call reproduces its first result bit for bit."""
    if len(first.cells) != len(again.cells):
        return Check(name, False, "different number of cells")
    for c1, c2 in zip(first.cells, again.cells):
        if c1.row() != c2.row() or c1.mean_se != c2.mean_se:
            return Check(name, False, f"cell {c1.model} pi={c1.pi} differs")
        e1, e2 = c1.estimates, c2.estimates
        if (e1 is None) != (e2 is None) or (
            e1 is not None and (e1.shape != e2.shape or e1.tobytes() != e2.tobytes())
        ):
            return Check(name, False, f"estimates of {c1.model} pi={c1.pi} differ")
    return Check(name, True)


def scenario2_truth() -> tuple[float, float]:
    """Exact scenario-2 effect and the SE of a 10^7-draw Monte Carlo estimate of it.

    With X ~ N(0, 1), E[exp(c + 0.6 X)] = exp(c + 0.18), so the effect is
    e^3.18 - e^1.18. Given X the two Poisson outcomes are independent, so
    Var(Y1 - Y0) = E[m1 + m0] + Var(m1 - m0)
                 = (e^3 + e) e^0.18 + (e^3 - e)^2 (e^0.72 - e^0.36).
    """
    exact = math.exp(3.18) - math.exp(1.18)
    var = (math.exp(3) + math.e) * math.exp(0.18) + (math.exp(3) - math.e) ** 2 * (
        math.exp(0.72) - math.exp(0.36)
    )
    return exact, math.sqrt(var / 1e7)


def check_truth(name: str, bias: float, mean_estimate: float) -> Check:
    """Reported bias + exact effect equals the mean estimate within K_TRUTH truth SEs."""
    exact, se = scenario2_truth()
    diff = bias + exact - mean_estimate
    return Check(name, abs(diff) <= K_TRUTH * se, f"bias + exact - mean = {diff:+.5f} (SE {se:.5f})")


def scenario1_variances(pi: float) -> dict[str, float]:
    """Closed-form n * avar for scenario 1 (Y1 = 5 + 2.5X + e, Y0 = 3 + X + e, X ~ N(0, 1)).

    ANOVA: Var Y1 / pi + Var Y0 / (1 - pi) = 7.25/pi + 2/(1 - pi).
    ANCOVA: one slope g = pi*2.5 + (1 - pi)*1 = 1 + 1.5 pi, so the arm
    residual second moments are m2(1) = (2.5 - g)^2 + 1 and
    m2(0) = (1 - g)^2 + 1. ANHECOVA (centered): arm slopes are exact, so
    1/pi + 1/(1 - pi), plus the centering penalty delta' Sigma delta =
    1.5^2 = 2.25.
    """
    g = 1.0 + 1.5 * pi
    return {
        "1 + A": 7.25 / pi + 2.0 / (1.0 - pi),
        "1 + A + X1": ((2.5 - g) ** 2 + 1.0) / pi + ((1.0 - g) ** 2 + 1.0) / (1.0 - pi),
        "1 + A + X1 + A:X1": 1.0 / pi + 1.0 / (1.0 - pi) + 2.25,
    }


# ---------------------------------------------------------------------------
# Population-calculus checks on `compare` output


def _gap_tol(*values: float) -> float:
    return CALCULUS_RTOL * max(1.0, *(abs(v) for v in values))


def moment_closed_forms(rec: dict) -> dict[str, float]:
    """Closed forms from a moment record (pi, sigma, omega1/0, mu1/0, q1/0), E(X) = 0.

    V(ANOVA) = (q1 - mu1^2)/pi + (q0 - mu0^2)/(1 - pi); the fully
    interacted model fits each arm's slope Sigma^-1 Omega_a, so its
    known-mean variance drops Omega_a' Sigma^-1 Omega_a from each arm, and
    centering adds delta_f' Sigma delta_f. The ANCOVA - ANOVA known-mean gap
    is (gamma_f + pi delta_f)' Sigma ((3pi - 2) delta_f - gamma_f) /
    (pi(1 - pi)) with gamma_f = Sigma^-1 Omega0, delta_f = Sigma^-1 (Omega1 - Omega0).
    """
    pi = float(rec["pi"])
    sigma = np.atleast_2d(np.asarray(rec["sigma"], dtype=float))
    om1 = np.atleast_1d(np.asarray(rec["omega1"], dtype=float))
    om0 = np.atleast_1d(np.asarray(rec["omega0"], dtype=float))
    var1 = float(rec["q1"]) - float(rec["mu1"]) ** 2
    var0 = float(rec["q0"]) - float(rec["mu0"]) ** 2
    gamma_f = np.linalg.solve(sigma, om0)
    delta_f = np.linalg.solve(sigma, om1 - om0)
    v_full = (var1 - om1 @ np.linalg.solve(sigma, om1)) / pi + (
        var0 - om0 @ np.linalg.solve(sigma, om0)
    ) / (1.0 - pi)
    left = gamma_f + pi * delta_f
    right = (3.0 * pi - 2.0) * delta_f - gamma_f
    return {
        "beta_ate": float(rec["mu1"]) - float(rec["mu0"]),
        "v_anova": var1 / pi + var0 / (1.0 - pi),
        "v_full_known": float(v_full),
        "v_full_centered": float(v_full + delta_f @ sigma @ delta_f),
        "ancova_minus_anova": float(left @ sigma @ right) / (pi * (1.0 - pi)),
    }


FULL, ANOVA, ANCOVA, INTERACTIONS = "1 + A + X + A:X", "1 + A", "1 + A + X", "1 + A + A:X"
TABLE1_PAIRS = (
    (FULL, ANOVA),
    (FULL, ANCOVA),
    (FULL, INTERACTIONS),
    (ANCOVA, ANOVA),
    (INTERACTIONS, ANOVA),
)
# The centered dominance condition (nested constraints, and model 1 frees
# the same covariates in main effects and interactions) holds exactly
# when model 1 is the fully interacted model.
CENTERED_CONDITION = {pair: pair[0] == FULL for pair in TABLE1_PAIRS}


def check_compare(name: str, payload: dict, rec: dict, pair: tuple[str, str]) -> list[Check]:
    """`linadjust compare --format json` output against the moment record."""
    out: list[Check] = []
    cf = moment_closed_forms(rec)
    try:
        km = payload["v_known_mean"]
        ce = payload["v_centered"]
        t2 = payload["theorem2_gap"]
        vkm = payload["verdict_known_mean"]["verdict"]
        vce = payload["verdict_centered"]["verdict"]
        beta = payload["beta_ate"]
    except (KeyError, TypeError):
        return [Check(name, False, "compare JSON lacks a field")]

    def close(label: str, got: float, want: float) -> None:
        ok = got is not None and abs(got - want) <= _gap_tol(want)
        out.append(Check(f"{name}.{label}", ok, f"{got!r} vs {want!r}"))

    close("beta_ate", beta, cf["beta_ate"])
    m1, m2 = pair
    if m2 == ANOVA:
        close("v_anova_known", km["model2"], cf["v_anova"])
        close("v_anova_centered", ce["model2"], cf["v_anova"])
    if m1 == FULL:
        close("v_full_known", km["model1"], cf["v_full_known"])
        close("v_full_centered", ce["model1"], cf["v_full_centered"])
    if pair == (ANCOVA, ANOVA):
        # gap reported as V(model2) - V(model1) = V(ANOVA) - V(ANCOVA)
        close("ancova_anova_gap", -km["gap"], cf["ancova_minus_anova"])
    if CENTERED_CONDITION[pair]:
        ok = t2 is not None and abs(ce["gap"] - t2) <= _gap_tol(t2, ce["model1"])
        ok = ok and t2 >= -_gap_tol(ce["model1"])
        out.append(Check(f"{name}.theorem2_gap", ok, f"centered gap {ce['gap']!r}, theorem2 {t2!r}"))
    else:
        out.append(Check(f"{name}.theorem2_absent", t2 is None, f"theorem2_gap {t2!r}"))
    for label, verdict, block in (("known_mean", vkm, km), ("centered", vce, ce)):
        tol = _gap_tol(block["model1"], block["model2"])
        if verdict == "Dominates":
            ok = block["gap"] >= -tol
        elif verdict == "EqualVariance":
            ok = abs(block["gap"]) <= tol
        else:
            ok = verdict == "NotGuaranteed"
        out.append(Check(f"{name}.verdict_{label}", ok, f"{verdict} with gap {block['gap']!r}"))
    return out


def check_verdict_matches(name: str, verdict: str, compare_verdict: str) -> Check:
    """A `check`/`table1` verdict equals `compare`'s for the same pair, pi and p."""
    return Check(name, verdict == compare_verdict, f"{verdict} vs compare {compare_verdict}")
