import csv
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from linadjust import (
    DID_LDV_CONFIGS,
    FIGURE1_PIS,
    REPORT_FIELDS,
    EstimationError,
    GaussianArmSampler,
    PopulationSpec,
    asymptotic_variance_centered,
    custom_scenario,
    did_vs_ldv_experiment,
    draw,
    figure1_data,
    named_spec,
    rep_seed,
    run_grid,
    scenario,
)
from linadjust import sim
from linadjust.sim import Scenario, _did_ldv_sampler

ANCOVA1 = named_spec("ANCOVA", 1)
TRIO = [named_spec(name, 1) for name in ("ANOVA", "ANCOVA", "ANHECOVA")]


class ConstantCovariateSampler:
    """A covariate that is constant in each draw with probability ``rate``."""

    p = 1

    def __init__(self, rate=1.0):
        self.rate = rate

    def potential(self, n, rng):
        x = rng.standard_normal((n, 1))
        if rng.random() < self.rate:
            x[:] = 0.0
        return x, rng.standard_normal(n) + 1.0, rng.standard_normal(n)


class TestScenarioConstruction:
    def test_ids(self):
        assert scenario(1).beta_ate == 2.0
        assert scenario(2).beta_ate == np.exp(3.18) - np.exp(1.18)
        assert scenario(3).covariate_assignment
        assert scenario(4).weighted

    @pytest.mark.parametrize("bad", [0, 5, "3", None])
    def test_bad_id(self, bad):
        with pytest.raises(ValueError):
            scenario(bad)

    def test_tiny_n(self):
        with pytest.raises(ValueError, match="n >= 4"):
            scenario(1, n=2)

    def test_custom_needs_valid_pi(self):
        with pytest.raises(ValueError, match="pi"):
            custom_scenario(object(), pi=1.0)

    def test_custom_pi_override_is_validated(self):
        scn = custom_scenario(_did_ldv_sampler("default"), pi=0.5, beta_ate=2.0, n=50)
        with pytest.raises(ValueError, match=r"pi must lie in \(0, 1\)"):
            draw(scn, 0, pi=1.5)
        with pytest.raises(ValueError, match=r"pi must lie in \(0, 1\)"):
            run_grid(scn, [named_spec("LDV", 2)], [1.5], 5, seed=0)

    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_pickle_round_trip_draws_the_same(self, sid):
        scn = scenario(sid, n=30)
        back = pickle.loads(pickle.dumps(scn))
        a, b = draw(scn, 7, pi=0.4), draw(back, 7, pi=0.4)
        for u, v in ((a.data.a, b.data.a), (a.data.y, b.data.y), (a.y1, b.y1), (a.y0, b.y0)):
            assert np.array_equal(u, v)

    def test_direct_construction_reads_the_law_from_the_id(self):
        scn = Scenario(id=4, n=40)
        assert scn.weighted and scn.covariate_assignment
        ref = draw(scenario(4, n=40), 3)
        assert np.array_equal(draw(scn, 3).data.weights, ref.data.weights)
        rep = run_grid(Scenario(id=1, n=40, pi=0.5), TRIO[:1], None, 3, seed=0)
        assert rep.to_csv() == run_grid(scenario(1, n=40, pi=0.5), TRIO[:1], None, 3).to_csv()
        with pytest.raises(ValueError, match="needs a sampler"):
            Scenario(id=5)

    def test_sampler_truth_is_exact_and_resolved_once(self):
        sampler = GaussianArmSampler(
            sigma=np.eye(1), b0=1.0, b1=2.5, l0=np.array([0.5]), l1=np.array([1.5]),
            s0=1.0, s1=1.0,
        )
        scn = custom_scenario(sampler, pi=0.4, n=60)
        assert scn.beta_ate == sampler.b1 - sampler.b0
        rep = run_grid(scn, [ANCOVA1], None, 5, seed=0)
        assert np.isfinite(rep.cells[0].bias)

    def test_sampler_without_moments_needs_beta_ate(self):
        class DrawOnlySampler:
            p = 1

            def potential(self, n, rng):
                x = rng.standard_normal((n, 1))
                return x, x[:, 0] + 1.0, x[:, 0]

        with pytest.raises(ValueError, match="beta_ate"):
            custom_scenario(DrawOnlySampler(), pi=0.5, n=40)

    @pytest.mark.parametrize("sid", [1, 2, 3, 4])
    def test_truth_matches_potential_outcomes(self, sid):
        """Oracle: the closed-form effect against the mean of Y(1) - Y(0)."""
        drw = draw(scenario(sid, n=1_000_000), rep_seed(0, "truth", sid), pi=0.5)
        d = drw.y1 - drw.y0
        mc_se = d.std(ddof=1) / np.sqrt(d.size)
        assert abs(d.mean() - scenario(sid).beta_ate) < 5 * mc_se


class TestDraw:
    def test_deterministic(self):
        scn = scenario(1, n=60)
        a = draw(scn, rep_seed(0, "k", 3), pi=0.4)
        b = draw(scn, rep_seed(0, "k", 3), pi=0.4)
        assert np.array_equal(a.data.y, b.data.y)
        assert np.array_equal(a.data.a, b.data.a)
        c = draw(scn, rep_seed(0, "k", 4), pi=0.4)
        assert not np.array_equal(a.data.y, c.data.y)

    def test_covariate_is_population_centered(self):
        drw = draw(scenario(1, n=100_000), 7, pi=0.5)
        assert drw.x_raw.mean() == pytest.approx(2.0, abs=0.02)
        assert np.array_equal(drw.data.x[:, 0], drw.x_raw - 2.0)

    def test_scenario1_needs_pi(self):
        with pytest.raises(ValueError, match="assignment probability"):
            draw(scenario(1, n=20), 0)
        with pytest.raises(ValueError, match="pi"):
            draw(scenario(1, n=20), 0, pi=1.5)

    def test_poisson_outcomes_are_counts(self):
        drw = draw(scenario(2, n=500), 11, pi=0.5)
        for arr in (drw.y1, drw.y0, drw.data.y):
            assert np.all(arr >= 0)
            assert np.array_equal(arr, np.floor(arr))

    def test_observed_outcome_consistency(self):
        drw = draw(scenario(1, n=300), 5, pi=0.3)
        a = drw.data.a
        assert np.array_equal(drw.data.y, a * drw.y1 + (1 - a) * drw.y0)

    def test_covariate_assignment_probabilities(self):
        drw = draw(scenario(3, n=400), 2)
        assert drw.pi_x is not None
        assert np.all((drw.pi_x > 0) & (drw.pi_x < 1))
        assert np.array_equal(drw.pi_x, expit(4.0 - 2.0 * drw.data.x[:, 0]))

    def test_treated_fraction_matches_integral(self):
        """Independent oracle: E[expit(4 - 2X)] with X standard normal."""
        target, _ = quad(lambda x: expit(4.0 - 2.0 * x) * norm.pdf(x), -10, 10)
        drw = draw(scenario(3, n=200_000), 123)
        assert drw.data.a.mean() == pytest.approx(target, abs=0.004)

    def test_inverse_variance_weights(self):
        drw = draw(scenario(4, n=200), 9)
        assert drw.data.weights is not None
        assert np.allclose(drw.data.weights, 1.0 / (drw.pi_x * (1.0 - drw.pi_x)))


class TestRunGrid:
    def test_bit_reproducible(self):
        scn = scenario(1, n=80)
        kw = dict(models=TRIO, pis=[0.3, 0.7], reps=40, seed=5)
        r1 = run_grid(scn, **kw)
        r2 = run_grid(scn, **kw)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_seed_changes_results(self):
        scn = scenario(1, n=80)
        r1 = run_grid(scn, [ANCOVA1], [0.5], 20, seed=1)
        r2 = run_grid(scn, [ANCOVA1], [0.5], 20, seed=2)
        assert r1.cell("1 + A + X1").bias != r2.cell("1 + A + X1").bias

    def test_cell_layout_and_fields(self):
        scn = scenario(1, n=60)
        rep = run_grid(scn, TRIO, [0.3, 0.5], 8, seed=0)
        assert len(rep.cells) == 6
        assert rep.cells[0].model == "1 + A"
        c = rep.cell("1 + A + X1 + A:X1", 0.5)
        assert c.reps == 8
        assert c.fail_rate == 0.0
        assert c.mean_se is not None and c.mean_se > 0
        assert c.estimates is None
        with pytest.raises(KeyError):
            rep.cell("1 + A", 0.9)

    def test_keep_estimates(self):
        rep = run_grid(scenario(1, n=60), [ANCOVA1], [0.4], 12, seed=0, keep_estimates=True)
        ests = rep.cells[0].estimates
        assert ests is not None and ests.shape == (12,)
        assert rep.cells[0].bias == pytest.approx(ests.mean() - 2.0, abs=1e-12)
        assert rep.cells[0].sd == pytest.approx(ests.std(ddof=1), abs=1e-12)

    def test_validation(self):
        scn = scenario(1, n=60)
        with pytest.raises(ValueError, match="reps"):
            run_grid(scn, TRIO, [0.5], 0)
        with pytest.raises(ValueError, match="model"):
            run_grid(scn, [], [0.5], 5)
        with pytest.raises(ValueError, match="explicit assignment"):
            run_grid(scn, TRIO, None, 5)

    def test_covariate_assignment_ignores_pis(self):
        rep = run_grid(scenario(3, n=120), [ANCOVA1], [0.2, 0.8], 4, seed=0)
        assert [c.pi for c in rep.cells] == [None]

    def test_csv_shape_and_round_trip(self):
        rep = run_grid(scenario(3, n=120), [ANCOVA1], None, 5, seed=3)
        text = rep.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(REPORT_FIELDS)
        assert len(rows) == 2
        record = dict(zip(rows[0], rows[1]))
        assert record["pi"] == ""
        assert record["scenario"] == "3"
        # repr-based serialization survives a float() round trip exactly
        assert float(record["bias"]) == rep.cells[0].bias
        assert float(record["sd"]) == rep.cells[0].sd
        assert float(record["mc_se"]) == rep.cells[0].mc_se

    def test_json_records(self):
        rep = run_grid(scenario(1, n=60), [ANCOVA1], [0.5], 4, seed=0)
        data = json.loads(rep.to_json())
        assert isinstance(data, list) and set(data[0]) == set(REPORT_FIELDS)

    def test_failure_rate_policy(self):
        class ConstantCovariateSampler:
            p = 1

            def potential(self, n, rng):
                x = np.zeros((n, 1))
                return x, rng.standard_normal(n) + 1.0, rng.standard_normal(n)

        scn = custom_scenario(ConstantCovariateSampler(), pi=0.5, beta_ate=1.0, n=40)
        with pytest.raises(EstimationError, match="failed in"):
            run_grid(scn, [ANCOVA1], None, 10, seed=0)

    def test_failures_are_counted_by_cause(self):
        models = [TRIO[0], ANCOVA1]
        scn = custom_scenario(ConstantCovariateSampler(), pi=0.5, beta_ate=1.0, n=40)
        with pytest.raises(EstimationError, match=r"in 10/10 replications \(singular design 10\)$"):
            run_grid(scn, models, None, 10, seed=0)
        # at n = 9 an arm is empty in about 2 of 512 draws
        scn = custom_scenario(ConstantCovariateSampler(rate=0.003), pi=0.5, beta_ate=1.0, n=9)
        rep = run_grid(scn, models, None, 2000, seed=1)
        anova, ancova = rep.cells
        assert set(anova.failures) == {"empty arm"}
        assert set(ancova.failures) == {"empty arm", "singular design"}
        assert ancova.failures["empty arm"] == anova.failures["empty arm"]
        for cell in rep.cells:
            assert sum(cell.failures.values()) == round(cell.fail_rate * 2000)
        assert "failures" not in rep.to_json()

    def test_models_share_each_replication(self):
        """Every model is fitted on each replication's one dataset: kept
        estimates pair up across models, and a model's cell does not
        depend on which other models the grid holds, or their order."""
        scn = scenario(1, n=80)
        kw = dict(pis=[0.3], reps=40, seed=5, keep_estimates=True)
        both = run_grid(scn, [TRIO[0], ANCOVA1], **kw)
        anova, ancova = (c.estimates for c in both.cells)
        assert np.corrcoef(anova, ancova)[0, 1] > 0.5
        alone = run_grid(scn, [ANCOVA1], **kw).cells[0]
        swapped = run_grid(scn, [ANCOVA1, TRIO[0]], **kw)
        for cell in (alone, swapped.cells[0]):
            assert np.array_equal(cell.estimates, ancova)
            assert cell.row() == both.cells[1].row()
        assert np.array_equal(swapped.cells[1].estimates, anova)

    def test_weighted_scenario_smoke(self):
        rep = run_grid(scenario(4, n=120), [named_spec("ANHECOVA", 1)], None, 4, seed=0)
        assert rep.cells[0].fail_rate == 0.0


def test_rep_seeds_are_distinct():
    seen = set()
    for key in ("scenario=1|pi=0.3|n=100", "scenario=1|pi=0.5|n=100"):
        for rep in range(50):
            ss = rep_seed(0, key, rep)
            assert isinstance(ss, np.random.SeedSequence)
            seen.add(tuple(ss.entropy))
    assert len(seen) == 100
    assert tuple(rep_seed(1, "k", 0).entropy) != tuple(rep_seed(0, "k", 0).entropy)


def test_figure_grid_covers_both_scenarios():
    rep = figure1_data(reps=2, seed=0, n=200)
    assert len(rep.cells) == 54
    assert FIGURE1_PIS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    scenarios = {c.scenario for c in rep.cells}
    assert scenarios == {1, 2}
    pis = sorted({c.pi for c in rep.cells})
    assert pis == [pytest.approx(v) for v in FIGURE1_PIS]


class TestDidVsLdv:
    def test_config_names(self):
        assert DID_LDV_CONFIGS == ("default", "unit-baseline", "zero-baseline")
        with pytest.raises(ValueError):
            did_vs_ldv_experiment(reps=2, config="bogus")

    def test_report_structure(self):
        rep = did_vs_ldv_experiment(reps=30, seed=0, n=120)
        assert [c.model for c in rep.cells] == ["DiD", "LDV"]
        assert all(c.estimates is not None and len(c.estimates) == 30 for c in rep.cells)
        assert all(c.pi == 0.5 for c in rep.cells)

    def test_pinned_slope_at_truth_costs_nothing(self):
        """With a unit control-arm slope the gain-score restriction is
        correct, so both estimators share one asymptotic variance."""
        sampler = _did_ldv_sampler("unit-baseline")
        pop = PopulationSpec(pi=0.5, moments=sampler.moments())
        v_did = asymptotic_variance_centered(named_spec("DiD", 2), pop)
        v_ldv = asymptotic_variance_centered(named_spec("LDV", 2), pop)
        assert v_did == pytest.approx(v_ldv, abs=1e-12)

        rep = did_vs_ldv_experiment(reps=1200, seed=0, n=200, config="unit-baseline")
        sd_did = rep.cell("DiD").sd
        sd_ldv = rep.cell("LDV").sd
        se = np.hypot(sd_did, sd_ldv) / np.sqrt(2 * 1200)
        assert abs(sd_did - sd_ldv) < 4 * se

    def test_wrong_pinned_slope_hurts(self):
        """A zero true slope makes the unit gain-score restriction pay
        a large, predictable variance penalty."""
        sampler = _did_ldv_sampler("zero-baseline")
        pop = PopulationSpec(pi=0.5, moments=sampler.moments())
        v_did = asymptotic_variance_centered(named_spec("DiD", 2), pop)
        v_ldv = asymptotic_variance_centered(named_spec("LDV", 2), pop)
        assert v_did > v_ldv

        n, reps = 250, 1200
        rep = did_vs_ldv_experiment(reps=reps, seed=0, n=n, config="zero-baseline")
        sd_did = rep.cell("DiD").sd
        sd_ldv = rep.cell("LDV").sd
        se = np.hypot(sd_did, sd_ldv) / np.sqrt(2 * reps)
        assert sd_did - sd_ldv > 3 * se
        # each arm's sampling sd tracks its exact asymptotic value
        assert sd_did == pytest.approx(np.sqrt(v_did / n), abs=4 * sd_did / np.sqrt(2 * reps))
        assert sd_ldv == pytest.approx(np.sqrt(v_ldv / n), abs=4 * sd_ldv / np.sqrt(2 * reps))


class TestChunkSeeds:
    """run_grid derives a chunk's seeds at once; each must give rep_seed's stream."""

    @staticmethod
    def streams(root, key, lo, hi):
        states = sim._rep_states(root, sim._digest(key), lo, hi)
        return [np.random.Generator(np.random.PCG64(sim._Derived(s))).random(8) for s in states]

    @given(
        root=st.integers(0, 2**64 - 1),
        key=st.text(st.characters(blacklist_categories=("Cs",))),
        rep=st.integers(0, 2**32 - 1),
    )
    @example(root=0, key="", rep=0)
    @example(root=2**32, key="scenario=1|pi=0.5|n=200", rep=2**32 - 1)
    @example(root=2**62 + 3, key="k", rep=7)
    @example(root=2**80 + 1, key="k", rep=3)  # a three-word root
    def test_streams_equal_rep_seed(self, root, key, rep):
        lo = max(rep - 2, 0)
        for r, got in zip(range(lo, rep + 1), self.streams(root, key, lo, rep + 1)):
            assert np.array_equal(got, np.random.default_rng(rep_seed(root, key, r)).random(8))

    def test_outside_the_proved_domain(self):
        # replications from 2**32 on take two words and fall back to SeedSequence
        lo, hi = 2**32 - 2, 2**32 + 2
        for r, got in zip(range(lo, hi), self.streams(9, "k", lo, hi)):
            assert np.array_equal(got, np.random.default_rng(rep_seed(9, "k", r)).random(8))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            rep_seed(-1, "k", 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sim._rep_states(-1, sim._digest("k"), 0, 3)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_grid(scenario(1, n=40), [ANCOVA1], [0.5], 3, seed=-1)


def _gaussian_sampler(p, seed=1):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(p, p))
    return GaussianArmSampler(
        sigma=m @ m.T + np.eye(p), b0=0.5, b1=1.5,
        l0=rng.normal(size=p), l1=rng.normal(size=p), s0=0.7, s1=1.3,
    )


class _PotentialOnly:
    """A sampler with only ``potential``; ``flat`` returns x as a 1-D array."""

    p = 1

    def __init__(self, flat=False):
        self.flat = flat

    def potential(self, n, rng):
        x = 1.0 + 2.0 * rng.standard_normal((n, 1))
        y1 = 1.0 + x[:, 0] + rng.standard_normal(n)
        y0 = rng.exponential(size=n)
        return (x[:, 0] if self.flat else x), y1, y0


class _BadShapes:
    """Invalid draws: NaN outcomes in about one in seven (``nan_first``), a bad shape in one in ten."""

    p = 1

    def __init__(self, fault, nan_first=False):
        self.fault, self.nan_first = fault, nan_first

    def potential(self, n, rng):
        x = rng.standard_normal((n, 1))
        y1, y0 = x[:, 0] + rng.standard_normal(n), rng.standard_normal(n)
        u = rng.random()
        if self.nan_first and u < 0.15:
            y0[1] = np.nan
        elif 0.15 <= u < 0.25:
            if self.fault == "3-d-x":
                x = x[None]
            elif self.fault == "short-x":
                x = x[1:]
            else:
                y1 = y1[1:]
        return x, y1, y0


class _MixedX:
    """A sampler whose x is (n, 1) in most draws and (n,) in about three in ten."""

    p = 1

    def potential(self, n, rng):
        x = rng.standard_normal((n, 1))
        y1, y0 = x[:, 0] + rng.standard_normal(n), rng.standard_normal(n)
        return (x[:, 0] if rng.random() < 0.3 else x), y1, y0


class _GainsACovariate:
    """A sampler whose x is (n, 1) in most draws and (n, 2) in about one in ten."""

    p = 1

    def potential(self, n, rng):
        x = rng.standard_normal((n, 2 if rng.random() < 0.1 else 1))
        y1, y0 = x[:, 0] + rng.standard_normal(n), rng.standard_normal(n)
        return x, y1, y0


class _GainsACovariateStacked(_GainsACovariate):
    """The same draws through ``potentials``: a chunk draws its first replication's count."""

    def potentials(self, n, rngs):
        wide = [rng.random() < 0.1 for rng in rngs]
        x = np.stack([rng.standard_normal((n, 2 if wide[0] else 1)) for rng in rngs])
        noise = np.stack([rng.standard_normal((2, n)) for rng in rngs])
        return x, x[..., 0] + noise[:, 0], noise[:, 1]


CHUNK_CASES = {
    "s1": (scenario(1, n=30), 0.3),
    "s2-poisson": (scenario(2, n=30), 0.6),
    "s3": (scenario(3, n=30), None),
    "s4": (scenario(4, n=30), None),
    **{f"gaussian-p{p}": (custom_scenario(_gaussian_sampler(p), pi=0.4, n=30), 0.4)
       for p in (1, 2, 3)},
    "potential-only": (custom_scenario(_PotentialOnly(), pi=0.5, beta_ate=0.0, n=30), 0.5),
    "potential-only-1d-x": (
        custom_scenario(_PotentialOnly(flat=True), pi=0.5, beta_ate=0.0, n=30), 0.5
    ),
}


class TestChunkDraw:
    """A chunk is drawn in two steps, raw variates per generator and then each
    transform once on the stack; its rows are the replications drawn alone."""

    @pytest.mark.parametrize("reps", [1, 9], ids=["chunk-of-one", "chunk-of-nine"])
    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_rows_equal_lone_draws(self, case, reps):
        scn, pi = CHUNK_CASES[case]
        p = sim._assignment_pi(scn, pi)
        seeds = [rep_seed(5, case, r) for r in range(reps)]
        chunk = sim._draw_chunk(scn, p, [np.random.default_rng(s) for s in seeds])
        stack = sim._draw_stack(scn, p, sim._rep_states(5, sim._digest(case), 0, reps))
        a, x, y, w, y1, y0, x_raw, pi_x = chunk
        for k, seed in enumerate(seeds):
            d = draw(scn, seed, pi=pi)
            fields = [(a, d.data.a), (x, d.data.x), (y, d.data.y), (w, d.data.weights),
                      (y1, d.y1), (y0, d.y0), (x_raw, d.x_raw), (pi_x, d.pi_x)]
            for got, want in fields:
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got[k], want)
            assert np.array_equal(stack.a[k], d.data.a)
            assert np.array_equal(stack.x[k], d.data.x)
            assert np.array_equal(stack.y[k], d.data.y)
            assert (stack.w is None) == (d.data.weights is None)
            if stack.w is not None:
                assert np.array_equal(stack.w[k], d.data.weights)

    @pytest.mark.parametrize("sid", [1, 2])
    def test_standard_stream_order(self, sid):
        """X, the assignment uniforms, then the noise of Y(1) and of Y(0); Poisson
        counts are drawn after the means."""
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 1.0, 25) - 2.0
        a = (rng.random(25) < 0.4).astype(float)
        if sid == 1:
            y1 = 5.0 + 2.5 * x + rng.standard_normal(25)
            y0 = 3.0 + x + rng.standard_normal(25)
        else:
            y1 = rng.poisson(np.exp(3.0 + 0.6 * x)).astype(float)
            y0 = rng.poisson(np.exp(1.0 + 0.6 * x)).astype(float)
        d = draw(scenario(sid, n=25), 7, pi=0.4)
        assert np.array_equal(d.data.x[:, 0], x)
        assert np.array_equal(d.data.a, a)
        assert np.array_equal(d.y1, y1)
        assert np.array_equal(d.y0, y0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_potential_is_row_zero_of_potentials(self, p):
        sampler = _gaussian_sampler(p, seed=p)
        one = sampler.potential(40, np.random.default_rng(3))
        stacked = sampler.potentials(40, [np.random.default_rng(3), np.random.default_rng(4)])
        for got, want in zip(one, stacked):
            assert np.array_equal(got, want[0])
        # the per-draw formulas, one replication at a time
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, p)) @ np.linalg.cholesky(sampler.sigma).T
        y1 = sampler.b1 + x @ sampler.l1 + sampler.s1 * rng.standard_normal(40)
        y0 = sampler.b0 + x @ sampler.l0 + sampler.s0 * rng.standard_normal(40)
        for got, want in zip(stacked, (x, y1, y0)):
            assert np.array_equal(got[1], want)

    @pytest.mark.parametrize("nan_first", [False, True], ids=["shape", "nan-before-shape"])
    @pytest.mark.parametrize("fault", ["3-d-x", "short-x", "short-y"])
    def test_bad_shape_raises_what_draw_raises(self, fault, nan_first):
        scn = custom_scenario(_BadShapes(fault, nan_first), pi=0.5, beta_ate=0.0, n=12)
        nan = "covariates and outcomes must be finite"
        reps = 60
        for key in map(str, range(20)):  # a stream whose first error is of the wanted kind
            errors = []
            for r in range(reps):
                try:
                    draw(scn, rep_seed(2, key, r))
                except ValueError as exc:
                    errors.append((r, str(exc)))
            kinds = [msg == nan for _, msg in errors]
            if errors[0][0] > 0 and kinds[0] == nan_first and not all(kinds):
                break
        else:
            pytest.fail("no stream has the wanted error order")
        with pytest.raises(ValueError) as got:
            sim._draw_stack(scn, 0.5, sim._rep_states(2, sim._digest(key), 0, reps))
        assert str(got.value) == errors[0][1]

    def test_x_may_drop_its_covariate_axis_in_some_draws(self):
        scn = custom_scenario(_MixedX(), pi=0.5, beta_ate=0.0, n=20)
        seeds = [rep_seed(6, "mixed", r) for r in range(12)]
        a, x, y, *_ = sim._draw_chunk(scn, 0.5, [np.random.default_rng(s) for s in seeds])
        flat = 0
        for k, seed in enumerate(seeds):
            d = draw(scn, seed)
            flat += d.x_raw.ndim == 1
            assert np.array_equal(a[k], d.data.a)
            assert np.array_equal(x[k], d.data.x)
            assert np.array_equal(y[k], d.data.y)
        assert 0 < flat < len(seeds)

    def test_x_with_and_without_its_covariate_axis_runs_a_grid(self):
        scn = custom_scenario(_MixedX(), pi=0.5, beta_ate=0.0, n=20)
        report = run_grid(scn, [named_spec("ANCOVA", 1)], [0.5], reps=30, seed=6)
        assert report.cells[0].fail_rate == 0.0

    @pytest.mark.parametrize(
        ("sampler", "n", "later_chunk"),
        [
            (_GainsACovariate, 20, False),
            (_GainsACovariate, 2048, True),
            (_GainsACovariate, 8192, True),
            (_GainsACovariateStacked, 2048, True),
            (_GainsACovariateStacked, 8192, True),
        ],
        ids=["one-chunk", "chunks-of-four", "one-per-chunk", "potentials-chunks-of-four",
             "potentials-one-per-chunk"],
    )
    def test_a_covariate_gained_in_a_later_draw_is_named(self, sampler, n, later_chunk):
        """The replication is compared with the first of its cell, as drawn alone; a
        ``potentials`` sampler's chunk is named by its first replication."""
        scn = custom_scenario(sampler(), pi=0.5, beta_ate=0.0, n=n)
        key, reps, chunk = f"scenario=custom|pi=0.5|n={n}", 40, max(1, sim.CHUNK_ROWS // n)
        step = chunk if sampler is _GainsACovariateStacked else 1
        for seed in range(40):  # one whose first replication has one covariate
            p = [draw(scn, rep_seed(seed, key, r)).data.p for r in range(reps)]
            bad = [r for r in range(0, reps, step) if p[r] != p[0]]
            if bad and (bad[0] >= chunk) == later_chunk and p[0] == 1:
                break
        else:
            pytest.fail("no seed gives the wanted draws")
        r = bad[0]
        with pytest.raises(ValueError) as got:
            run_grid(scn, [named_spec("ANOVA", 1)], [0.5], reps, seed=seed)
        assert str(got.value) == (
            f"replication {r} draws {p[r]} covariates but replication 0 draws 1"
        )
