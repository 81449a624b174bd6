import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linadjust import (
    FREE,
    CoefConstraint,
    Dataset,
    Empirical,
    KnownMean,
    ModelSpec,
    build_design,
    format_formula,
    named_spec,
    parse_formula,
)
from linadjust.model import _center, _design

NAMES1 = ["X1"]
NAMES2 = ["X1", "X2"]


def spec_of(gamma, delta):
    mk = lambda v: FREE if v is None else CoefConstraint(v)
    return ModelSpec(tuple(mk(g) for g in gamma), tuple(mk(d) for d in delta))


class TestConstraint:
    def test_free_contains_everything(self):
        assert FREE.contains(FREE)
        assert FREE.contains(CoefConstraint(3.0))

    def test_fixed_contains_only_itself(self):
        c = CoefConstraint(1.0)
        assert c.contains(CoefConstraint(1.0))
        assert not c.contains(CoefConstraint(2.0))
        assert not c.contains(FREE)

    def test_repr(self):
        assert repr(FREE) == "Free"
        assert repr(CoefConstraint(1.5)) == "Fixed(1.5)"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CoefConstraint(float("nan"))


class TestParse:
    def test_anhecova(self):
        spec = parse_formula("1 + A + X1 + A:X1", NAMES1)
        assert spec == named_spec("ANHECOVA", 1)

    def test_compact_no_spaces(self):
        assert parse_formula("1+A+X1+A:X1", NAMES1) == named_spec("anhecova", 1)

    def test_absent_terms_pinned_to_zero(self):
        spec = parse_formula("1 + A", NAMES2)
        assert spec.gamma == (CoefConstraint(0.0),) * 2
        assert spec.delta == (CoefConstraint(0.0),) * 2

    def test_fixed_value(self):
        spec = parse_formula("1 + A + X1@1 + X2 + A:X2", NAMES2)
        assert spec.gamma == (CoefConstraint(1.0), FREE)
        assert spec.delta == (CoefConstraint(0.0), FREE)

    def test_x_shorthand_expands_to_all_covariates(self):
        spec = parse_formula("1 + A + X + A:X", NAMES2)
        assert spec == named_spec("ANHECOVA", 2)

    def test_x_shorthand_name_wins(self):
        """A covariate literally named X is addressed by name."""
        spec = parse_formula("1 + A + X", ["X", "Z"])
        assert spec.gamma == (FREE, CoefConstraint(0.0))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("A + X1", "intercept"),
            ("1 + X1", "treatment"),
            ("1 + A + X1 + X1", "duplicate"),
            ("1 + 1 + A", "duplicate term '1'"),
            ("1 + A + A", "duplicate term 'A'"),
            ("1 + A + X9", "unknown covariate"),
            ("1 + A + A:X9", "unknown covariate"),
            ("1 + A + ", "empty term"),
            ("1 + A + X1@@2", "cannot parse"),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_formula(text, NAMES1)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ValueError, match="position 8"):
            parse_formula("1 + A + ?bad", NAMES1)

    def test_reserved_names(self):
        with pytest.raises(ValueError, match="reserved"):
            parse_formula("1 + A", ["A"])

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            parse_formula("1 + A", ["X1", "X1"])


class TestParseCache:
    """parse_formula is memoized on (text, tuple(names)); a cached spec must be
    the spec a fresh parse gives, for those names and no others."""

    def test_list_and_tuple_names_give_the_same_spec(self):
        text = "1 + A + X1@0.5 + A:X2"
        from_list = parse_formula(text, ["X1", "X2"])
        assert parse_formula(text, ("X1", "X2")) is from_list
        assert from_list == ModelSpec((CoefConstraint(0.5), CoefConstraint(0.0)),
                                      (CoefConstraint(0.0), FREE))

    def test_different_names_give_different_specs(self):
        assert parse_formula("1 + A + b", ["c", "b"]).gamma == (CoefConstraint(0.0), FREE)
        assert parse_formula("1 + A + b", ["b", "c"]).gamma == (FREE, CoefConstraint(0.0))
        assert parse_formula("1 + A + X", ["X1"]).p == 1
        assert parse_formula("1 + A + X", ["X1", "X2"]).p == 2

    @pytest.mark.parametrize("text", ["1 + A + ?bad", "1 + A + X9", "A + X1"])
    def test_a_malformed_formula_raises_the_same_message_every_time(self, text):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                parse_formula(text, NAMES1)
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_a_cached_spec_is_frozen(self):
        spec = parse_formula("1 + A + X1", NAMES1)
        with pytest.raises(AttributeError):
            spec.gamma = (CoefConstraint(0.0),)
        assert parse_formula("1 + A + X1", NAMES1).gamma == (FREE,)


def test_named_spec_is_memoized_on_name_and_p():
    """An equal call returns the same frozen spec; a p of another type is not served
    from the cache, so a float p is refused as it always was."""
    spec = named_spec("ANCOVA", 2)
    assert named_spec("ANCOVA", 2) is spec
    assert named_spec("ancova", 2) == spec and named_spec("ANCOVA", 3).p == 3
    with pytest.raises(TypeError):
        named_spec("ANCOVA", 2.0)


constraint_st = st.one_of(
    st.none(),
    st.just(0.0),
    st.just(1.0),
    st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3)),
)


@given(
    st.integers(1, 4).flatmap(
        lambda p: st.tuples(
            st.lists(constraint_st, min_size=p, max_size=p),
            st.lists(constraint_st, min_size=p, max_size=p),
        )
    )
)
def test_format_parse_round_trip(gd):
    """format_formula is a section of parse_formula for any spec."""
    spec = spec_of(*gd)
    names = [f"X{j + 1}" for j in range(spec.p)]
    assert parse_formula(format_formula(spec, names), names) == spec


def test_format_omits_fixed_zero():
    spec = spec_of([None, 0.0], [1.5, 0.0])
    assert format_formula(spec, NAMES2) == "1 + A + X1 + A:X1@1.5"


def test_format_rejects_wrong_name_count():
    with pytest.raises(ValueError, match="expected 1 covariate names, got 2"):
        format_formula(named_spec("ANOVA", 1), NAMES2)


class TestNamedSpecs:
    def test_case_insensitive(self):
        assert named_spec("AnHeCoVa", 2) == named_spec("ANHECOVA", 2)

    def test_anova_all_pinned(self):
        spec = named_spec("ANOVA", 3)
        assert spec.unrestricted_gamma() == ()
        assert spec.unrestricted_delta() == ()

    def test_ancova(self):
        spec = named_spec("ANCOVA", 2)
        assert spec.unrestricted_gamma() == (0, 1)
        assert spec.unrestricted_delta() == ()

    def test_did_pins_baseline_slope_at_one(self):
        spec = named_spec("DiD", 2)
        assert spec.gamma == (CoefConstraint(1.0), FREE)
        assert spec.delta == (CoefConstraint(0.0), FREE)

    def test_ldv_frees_baseline_slope(self):
        spec = named_spec("LDV", 2)
        assert spec.gamma == (FREE, FREE)
        assert spec.delta == (CoefConstraint(0.0), FREE)

    def test_needs_a_covariate(self):
        with pytest.raises(ValueError, match="p must be positive, got 0"):
            named_spec("ANOVA", 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_spec("anacova", 1)


class TestDataset:
    def test_1d_covariate_promoted(self):
        d = Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], [0.0] * 4)
        assert d.x.shape == (4, 1)
        assert d.p == 1
        assert repr(d) == "Dataset(n=4, p=1, weights=none)"
        weighted = Dataset([0, 1, 0, 1], [[1.0, 0.0]] * 4, [0.0] * 4, [1.0] * 4)
        assert repr(weighted) == "Dataset(n=4, p=2, weights=present)"

    def test_bad_treatment_reports_row(self):
        with pytest.raises(ValueError, match="row 2"):
            Dataset([0, 1, 2, 1], [1.0, 2.0, 3.0, 4.0], [0.0] * 4)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least"):
            Dataset([0, 1], [1.0, 2.0], [0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([0, 1, 0, 1], [1.0, np.inf, 3.0, 4.0], [0.0] * 4)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], [0.0] * 4, [1.0, 0.0, 1.0, 1.0])

    def test_weights_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"weights shape \(3,\) does not match n=4"):
            Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], [0.0] * 4, [1.0, 1.0, 1.0])


class TestBuildDesign:
    def test_column_count(self):
        data = Dataset([0, 1, 0, 1, 0, 1], np.arange(12.0).reshape(6, 2), np.zeros(6))
        for spec, q in [
            (named_spec("ANOVA", 2), 2),
            (named_spec("ANCOVA", 2), 4),
            (named_spec("ANHECOVA", 2), 6),
            (named_spec("DiD", 2), 4),
        ]:
            z, offset, cmap = build_design(spec, data)
            assert z.shape == (6, q)
            assert len(cmap.labels) == q
            assert cmap.labels[:2] == ("1", "A")

    def test_empirical_centering_zeroes_column_means(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.integers(0, 2, 20), rng.normal(5, 2, (20, 2)), rng.normal(size=20))
        z, _, _ = build_design(named_spec("ANCOVA", 2), data)
        assert np.allclose(z[:, 2:].mean(axis=0), 0.0, atol=1e-12)

    def test_known_mean_centering(self):
        data = Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], np.zeros(4))
        spec = named_spec("ANCOVA", 1).with_centering(KnownMean((2.0,)))
        z, _, _ = build_design(spec, data)
        assert np.allclose(z[:, 2], np.array([-1.0, 0.0, 1.0, 2.0]))

    def test_gain_score_offset(self):
        """The gain-score spec's fixed unit slope lands in the offset."""
        rng = np.random.default_rng(8)
        y0 = rng.normal(size=8)
        data = Dataset(rng.integers(0, 2, 8), y0, rng.normal(size=8))
        spec = named_spec("DiD", 1).with_centering(KnownMean((0.0,)))
        _, offset, _ = build_design(spec, data)
        assert np.allclose(offset, y0)

    def test_free_interaction_column_is_a_times_x(self):
        data = Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], np.zeros(4))
        spec = named_spec("ANHECOVA", 1).with_centering(KnownMean((0.0,)))
        z, _, cmap = build_design(spec, data)
        j = cmap.delta_cols[0]
        assert np.allclose(z[:, j], data.a * data.x[:, 0])

    def test_known_mean_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            named_spec("ANCOVA", 1).with_centering(KnownMean((0.0, 1.0)))

    def test_known_mean_must_be_finite(self):
        with pytest.raises(ValueError, match="known mean must be finite"):
            KnownMean((float("nan"),))

    def test_covariate_count_mismatch(self):
        data = Dataset([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], np.zeros(4))
        with pytest.raises(ValueError, match="dataset has p=1 covariates but spec expects 2"):
            build_design(named_spec("ANCOVA", 2), data)

    @pytest.mark.parametrize(
        "formula",
        ["1 + A", "1 + A + X1 + X2", "1 + A + X1 + X2 + A:X1 + A:X2", "1 + A + X1@0.5 + A:X2",
         "1 + A + X2 + A:X1@-2 + A:X2"],
    )
    @pytest.mark.parametrize("centering", [Empirical(), KnownMean((0.5, -1.0))])
    def test_stacked_design_is_column_major(self, formula, centering):
        """_design lays a stack out as one C-contiguous (R, q, n) block whose
        samples are the transposes of build_design's (n, q) designs, bit for bit."""
        rng = np.random.default_rng(11)
        datasets = [Dataset(rng.integers(0, 2, 9), rng.normal(size=(9, 2)), rng.normal(size=9))
                    for _ in range(3)]
        spec = parse_formula(formula, NAMES2).with_centering(centering)
        a = np.stack([d.a for d in datasets])
        z, offset, cmap = _design(spec, a, _center(centering, np.stack([d.x for d in datasets])))
        assert z.shape == (3, len(cmap.labels), 9) and z.flags.c_contiguous
        for r, data in enumerate(datasets):
            zr, offr, cmapr = build_design(spec, data)
            assert zr.flags.c_contiguous and zr.shape == (9, len(cmap.labels))
            assert np.array_equal(z[r].T, zr)
            assert np.array_equal(offset[r], offr)
            assert cmapr == cmap


def test_spec_length_mismatch():
    with pytest.raises(ValueError):
        ModelSpec((FREE,), (FREE, FREE))


def test_spec_needs_a_covariate():
    with pytest.raises(ValueError, match="at least one covariate is required"):
        ModelSpec((), ())


def test_with_centering_preserves_constraints():
    spec = named_spec("ANHECOVA", 2)
    km = spec.with_centering(KnownMean((0.0, 0.0)))
    assert km.gamma == spec.gamma and km.delta == spec.delta
    assert isinstance(km.centering, KnownMean)
    assert isinstance(spec.centering, Empirical)


def test_package_exports_each_submodule_name_once():
    import linadjust
    from linadjust import dominance, estimate, model, population, sim

    exported = linadjust.__all__
    assert len(exported) == len(set(exported))
    for module in (model, estimate, population, dominance, sim):
        for name in module.__all__:
            assert name in exported
            assert getattr(linadjust, name) is getattr(module, name)
