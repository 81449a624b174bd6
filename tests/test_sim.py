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
    fit_ols,
    make_counterexample,
    named_spec,
    parse_formula,
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

    @pytest.mark.parametrize("bad", [0, 5, "3", None, 1.0, True])
    def test_bad_id(self, bad):
        with pytest.raises(ValueError):
            scenario(bad)

    def test_numpy_integers_are_stored_as_int(self):
        """A numpy id, n and reps run the streams of their int values, and the
        report serializes."""
        scn = scenario(np.int64(1), n=np.int64(40))
        assert (type(scn.id), type(scn.n)) == (int, int)
        got = run_grid(scn, TRIO, [0.5], np.int64(3), seed=0, keep_estimates=True)
        want = run_grid(scenario(1, n=40), TRIO, [0.5], 3, seed=0, keep_estimates=True)
        assert got.to_json() == want.to_json()
        for g, w in zip(got.cells, want.cells):
            assert g.estimates.tobytes() == w.estimates.tobytes()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scenario(1, n=2),
            lambda: Scenario(id=1, n=2),
            lambda: custom_scenario(_did_ldv_sampler("default"), pi=0.5, n=0),
            lambda: custom_scenario(_did_ldv_sampler("default"), pi=0.5, n=-3),
            lambda: custom_scenario(_did_ldv_sampler("default"), pi=0.5, n=3),
        ],
        ids=["scenario-2", "Scenario-2", "custom-0", "custom-minus-3", "custom-3"],
    )
    def test_tiny_n(self, build):
        with pytest.raises(ValueError, match="n >= 4"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: custom_scenario(object(), pi=1.0),
            lambda: custom_scenario(_did_ldv_sampler("default"), pi=0.0),
            lambda: scenario(1, pi=1.5),
        ],
        ids=["custom-1", "custom-0", "scenario-1.5"],
    )
    def test_needs_valid_pi(self, build):
        with pytest.raises(ValueError, match=r"pi must lie in \(0, 1\)"):
            build()

    def test_custom_pi_override_is_validated(self, monkeypatch):
        """A bad pi raises before run_grid derives a seed, let alone draws."""
        scn = custom_scenario(_did_ldv_sampler("default"), pi=0.5, beta_ate=2.0, n=50)
        with pytest.raises(ValueError, match=r"pi must lie in \(0, 1\)"):
            draw(scn, 0, pi=1.5)
        calls = TestSeedBlocks.spy(monkeypatch)
        with pytest.raises(ValueError, match=r"pi must lie in \(0, 1\)"):
            run_grid(scn, [named_spec("LDV", 2)], [0.5, 1.5], 5, seed=0)
        assert calls == []

    @pytest.mark.parametrize(
        ("scn", "pis"),
        [
            (scenario(1, n=200), [0.5, 0.7]),
            (custom_scenario(_did_ldv_sampler("default"), pi=0.5, beta_ate=2.0, n=200), None),
        ],
        ids=["standard", "gaussian-arm-sampler"],
    )
    def test_covariate_counts_are_checked_before_the_first_draw(self, scn, pis, monkeypatch):
        """A model that expects more covariates than the draws have raises
        before run_grid derives a seed or draws a chunk."""
        called = []
        monkeypatch.setattr("linadjust.sim._rep_states", lambda *a: called.append("seeds"))
        monkeypatch.setattr("linadjust.sim._draw_stack", lambda *a: called.append("draw"))
        p = 1 if scn.sampler is None else scn.sampler.p
        models = [named_spec("ANOVA", p), named_spec("ANCOVA", p + 1)]
        with pytest.raises(ValueError, match=f"dataset has p={p} covariates but spec expects {p + 1}"):
            run_grid(scn, models, pis, 20000, seed=0)
        assert called == []

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
        want = expit(4.0 - 2.0 * drw.data.x[:, 0])
        assert np.all(np.abs(drw.pi_x - want) <= 2 * np.spacing(want))

    def test_treated_fraction_matches_integral(self):
        """Independent oracle: E[expit(4 - 2X)] with X standard normal."""
        target, _ = quad(lambda x: expit(4.0 - 2.0 * x) * norm.pdf(x), -10, 10)
        drw = draw(scenario(3, n=200_000), 123)
        assert drw.data.a.mean() == pytest.approx(target, abs=0.004)

    def test_inverse_variance_weights(self):
        drw = draw(scenario(4, n=200), 9)
        assert drw.data.weights is not None
        assert np.allclose(drw.data.weights, 1.0 / (drw.pi_x * (1.0 - drw.pi_x)))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
    )
    def test_inverse_variance_weights_are_exact_to_two_ulp(self):
        """Against 1/(pi(1 - pi)) = e^z + 2 + e^-z, z = 4 - 2X, in long double:
        forming 1 - pi would cancel for the heaviest units."""
        drw = draw(scenario(4, n=20_000), 9)
        z = (4.0 - 2.0 * drw.data.x[:, 0]).astype(np.longdouble)
        w = drw.data.weights
        assert np.all(np.abs(w - (np.exp(z) + 2 + np.exp(-z))) <= 2 * np.spacing(w))


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

    @pytest.mark.parametrize(
        "kw", [{"seed": 3.9}, {"seed": 3.0}, {"seed": True}, {"seed": np.True_}, {"reps": True},
               {"reps": 20.0}],
        ids=["seed-3.9", "seed-3.0", "seed-True", "seed-np-True", "reps-True", "reps-20.0"],
    )
    def test_seed_and_reps_are_integers(self, kw, monkeypatch):
        """A float or bool seed or reps raises TypeError before the first draw;
        seed 3.9 used to run seed 3's streams and report 3.9, and reps True one
        replication."""
        monkeypatch.setattr(sim, "_draw_stack", None)  # a draw would raise TypeError too
        args = {"seed": 3, "reps": 20, **kw}
        with pytest.raises(TypeError, match=f"{next(iter(kw))} must be an integer"):
            run_grid(scenario(1, n=50), [ANCOVA1], [0.5], args["reps"], seed=args["seed"])

    def test_a_numpy_integer_seed_is_stored_as_int(self):
        got = run_grid(scenario(1, n=50), [ANCOVA1], [0.5], 6, seed=np.int64(3))
        assert type(got.seed) is int
        assert got.to_json() == run_grid(scenario(1, n=50), [ANCOVA1], [0.5], 6, seed=3).to_json()
        assert type(figure1_data(reps=2, seed=np.uint8(1), n=200).seed) is int
        with pytest.raises(TypeError, match="seed must be an integer"):
            figure1_data(reps=2, seed=1.5, n=50)
        with pytest.raises(TypeError, match="reps must be an integer"):
            did_vs_ldv_experiment(reps=True, n=50)

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

    def test_csv_quotes_a_scenario_id_with_a_comma(self):
        """The id trial,A was written bare: 10 fields under 9 headers."""
        sampler = _did_ldv_sampler("default")
        scn = custom_scenario(sampler, pi=0.5, n=40, id="trial,A")
        rep = run_grid(scn, [named_spec("ANCOVA", sampler.p)], None, 3)
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert [len(row) for row in rows] == [len(REPORT_FIELDS)] * 2
        assert dict(zip(rows[0], rows[1]))["scenario"] == "trial,A"

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


@pytest.mark.parametrize("root, rep", [(3.9, 0), (True, 0), (3, 1.0), (3, False)])
def test_rep_seed_takes_integers_only(root, rep):
    """rep_seed(3.9, key, r) used to hash 3, where draw(scn, 3.9) raises."""
    with pytest.raises(TypeError, match="must be an integer"):
        rep_seed(root, "k", rep)
    assert rep_seed(np.int64(3), "k", np.int32(2)).entropy == rep_seed(3, "k", 2).entropy


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


@pytest.mark.parametrize(
    "call, name, value",
    [(lambda: run_grid(scenario(1, n=40), [ANCOVA1], [0.5], 3, seed=-3), "seed", -3),
     (lambda: rep_seed(-1, "k", 0), "root_seed", -1),
     (lambda: rep_seed(0, "k", -1), "rep", -1)],
    ids=["run_grid", "root_seed", "rep"],
)
def test_a_negative_seed_is_named(call, name, value):
    """Each said only "expected non-negative integer", run_grid's from its seed
    derivation, and named no argument."""
    with pytest.raises(ValueError, match=f"^{name}: expected non-negative integer, got {value}$"):
        call()


class TestSeedBlocks:
    """run_grid derives a cell's seeds SEED_BLOCK replications per ``_rep_states``
    call and hands each chunk its slice."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        rep_states = sim._rep_states

        def recorded(root, digest, lo, hi):
            calls.append((lo, hi))
            return rep_states(root, digest, lo, hi)

        monkeypatch.setattr("linadjust.sim._rep_states", recorded)
        return calls

    @pytest.mark.parametrize("block", [7, 100], ids=["block-below-chunk", "block-across-chunks"])
    def test_a_cell_longer_than_a_block_matches_lone_draws_and_fits(self, block, monkeypatch):
        """Chunks of 40 replications against blocks of 7 (several calls per
        chunk) or of 100 (chunks 80-119 and 160-199 span two blocks)."""
        monkeypatch.setattr("linadjust.sim.CHUNK_ROWS", 40 * 60)
        monkeypatch.setattr("linadjust.sim.SEED_BLOCK", block)
        calls = self.spy(monkeypatch)
        sampler = make_counterexample("InteractionsOnlyWorseCentered", 0.75).sampler
        scn = custom_scenario(sampler, pi=0.75, beta_ate=1.0, n=60)
        models = [named_spec("ANOVA", 1), parse_formula("1 + A + A:X1", ["X1"]), TRIO[2]]
        reps, seed = 250, 4
        assert sim._chunk_reps(scn.n) == 40
        report = run_grid(scn, models, None, reps, seed=seed, keep_estimates=True)
        assert max(hi - lo for lo, hi in calls) == block
        assert [lo for lo, _ in calls] == list(range(0, reps, block))
        key = "scenario=custom|pi=0.75|n=60"
        datasets = [draw(scn, rep_seed(seed, key, r)).data for r in range(reps)]
        for spec, cell in zip(models, report.cells):
            fits = [fit_ols(spec, d) for d in datasets]
            assert cell.fail_rate == 0.0
            assert np.array_equal(cell.estimates, [f.ate_hat for f in fits])
            assert cell.mean_se == pytest.approx(np.mean([f.ate_se for f in fits]), rel=1e-12)

    def test_rep_states_is_asked_for_one_block_at_most(self, monkeypatch):
        """A cell of up to SEED_BLOCK replications takes one call; a longer one
        takes a block per call, the last one short."""
        calls = self.spy(monkeypatch)
        run_grid(scenario(1, n=200), [ANCOVA1], [0.3, 0.5], 100, seed=2)
        assert calls == [(0, 100), (0, 100)]
        calls.clear()
        monkeypatch.setattr("linadjust.sim.SEED_BLOCK", 50)
        run_grid(scenario(1, n=200), [ANCOVA1], [0.5], 130, seed=2)
        assert calls == [(0, 50), (50, 100), (100, 130)]


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


class _StackedFlatX:
    """A ``potentials`` sampler whose x is (R, n), the stacked form of an (n,) x."""

    def potentials(self, n, rngs):
        x = np.stack([rng.standard_normal(n) for rng in rngs])
        noise = np.stack([rng.standard_normal((2, n)) for rng in rngs])
        return x, 1.0 + x + noise[:, 0], noise[:, 1]


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
    "potentials-1d-x": (custom_scenario(_StackedFlatX(), pi=0.5, beta_ate=1.0, n=30), 0.5),
}


POTENTIALS_SAMPLERS = {  # keyed by p for the random Gaussian samplers
    **{str(p): _gaussian_sampler(p, seed=p) for p in (1, 2, 3)},
    "ancova-worse": make_counterexample("AncovaWorse", 0.3).sampler,
    "interactions-only-worse": make_counterexample("InteractionsOnlyWorseCentered", 0.75).sampler,
    "zero-slope": GaussianArmSampler(
        sigma=[[2.5]], b0=0.0, b1=-1.0, l0=[0.0], l1=[0.0], s0=0.5, s1=2.0
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

    @pytest.mark.parametrize("case", list(POTENTIALS_SAMPLERS))
    def test_potential_is_row_zero_of_potentials(self, case):
        """Bit for bit, also where p = 1 forms its products elementwise."""
        sampler = POTENTIALS_SAMPLERS[case]
        p = sampler.p
        one = sampler.potential(40, np.random.default_rng(3))
        stacked = sampler.potentials(40, [np.random.default_rng(3), np.random.default_rng(4)])
        for got, want in zip(one, stacked):
            assert got.shape == want[0].shape and got.tobytes() == want[0].tobytes()
        # the per-draw formulas, one replication at a time
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, p)) @ np.linalg.cholesky(sampler.sigma).T
        y1 = sampler.b1 + x @ sampler.l1 + sampler.s1 * rng.standard_normal(40)
        y0 = sampler.b0 + x @ sampler.l0 + sampler.s0 * rng.standard_normal(40)
        for got, want in zip(stacked, (x, y1, y0)):
            assert got[1].shape == want.shape and got[1].tobytes() == want.tobytes()

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

    def test_a_stacked_1d_x_runs_a_grid(self):
        """A ``potentials`` x of shape (R, n) is one covariate, as an (n,) x is to
        ``draw``: each kept estimate is the fit of its replication drawn alone."""
        scn, pi = CHUNK_CASES["potentials-1d-x"]
        report = run_grid(scn, TRIO, [pi], reps=40, seed=6, keep_estimates=True)
        key = f"scenario=custom|pi={pi}|n=30"
        datasets = [draw(scn, rep_seed(6, key, r)).data for r in range(40)]
        for spec, cell in zip(TRIO, report.cells):
            assert cell.fail_rate == 0.0
            assert np.array_equal(cell.estimates, [fit_ols(spec, d).ate_hat for d in datasets])

    def test_x_with_and_without_its_covariate_axis_runs_a_grid(self):
        scn = custom_scenario(_MixedX(), pi=0.5, beta_ate=0.0, n=20)
        report = run_grid(scn, [named_spec("ANCOVA", 1)], [0.5], reps=30, seed=6)
        assert report.cells[0].fail_rate == 0.0

    @pytest.mark.parametrize(
        ("sampler", "n", "chunk"),
        [
            (_GainsACovariate, 20, 102),
            (_GainsACovariate, 2048, 4),
            (_GainsACovariate, 8192, 1),
            (_GainsACovariateStacked, 2048, 4),
            (_GainsACovariateStacked, 8192, 1),
        ],
        ids=["one-chunk", "chunks-of-four", "one-per-chunk", "potentials-chunks-of-four",
             "potentials-one-per-chunk"],
    )
    def test_a_covariate_gained_in_a_later_draw_is_named(self, sampler, n, chunk, monkeypatch):
        """The replication is compared with the first of its cell, as drawn alone; a
        ``potentials`` sampler's chunk is named by its first replication. A row
        budget of 2048 makes one chunk of all 40 replications at n = 20, chunks of
        four at n = 2048 and of one at n = 8192."""
        monkeypatch.setattr("linadjust.sim.CHUNK_ROWS", 2048)
        scn = custom_scenario(sampler(), pi=0.5, beta_ate=0.0, n=n)
        key, reps = f"scenario=custom|pi=0.5|n={n}", 40
        assert sim._chunk_reps(n) == chunk
        later_chunk = chunk < reps
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


_JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\n\x1f\x7fé€ 𐏿😀'),
                     max_size=8)
_JSON_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, np.float64(0.1), np.float64("-inf")]
)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _JSON_FLOATS | _JSON_TEXT)
_JSON_KEYS = _JSON_TEXT | st.integers(-(2**70), 2**70) | _JSON_FLOATS | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=24,
)


class TestJsonWriter:
    """``sim._json`` writes exactly what ``json.dumps(value, indent=2)`` writes."""

    @given(_JSON_VALUES)
    @example({"pi": 0.3, "rows": [], "corollaries": {}, "": [[], {}, ()]})
    @example([-0.0, float("nan"), -float("inf"), 5e-324, 1e16, 2**64 + 1, np.float64(1 / 3), True, None])
    @example({1.5: 1, True: 2, None: 3, 2**65: 4, float("nan"): 5, "\ud800\"\\": 6})
    def test_matches_json_dumps(self, value):
        assert sim._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [np.int64(3), {1, 2}, [1.0, {"a": np.int64(3)}], {(1, 2): 3}, {b"k": 1}, np.bool_(True), object()],
        ids=["np.int64", "set", "nested np.int64", "tuple key", "bytes key", "np.bool_", "object"],
    )
    def test_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            sim._json(value)
        assert str(got.value) == str(want.value)
