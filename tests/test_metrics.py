"""Tests for the diagnostic-test metrics (paper §1.1, §2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    QuadrantCounts,
    average_quadrants,
    figure1_curve,
    figure1_family,
    metric_means,
    pvn_from,
    pvp_from,
    quadrant_from_rates,
)
from repro.metrics.quadrant import METRIC_POPULATIONS


class TestPaperWorkedExample:
    """§2.1: 100 branches, 20 mispredicted, HC for 61 C and 2 I."""

    quadrant = QuadrantCounts(c_hc=61, i_hc=2, c_lc=19, i_lc=18)

    def test_sens(self):
        assert self.quadrant.sens == pytest.approx(61 / 80)  # "76%"

    def test_pvp(self):
        assert self.quadrant.pvp == pytest.approx(61 / 63)  # "97%"

    def test_spec(self):
        assert self.quadrant.spec == pytest.approx(18 / 20)  # "90%"

    def test_pvn(self):
        assert self.quadrant.pvn == pytest.approx(18 / 37)  # "49%"

    def test_accuracy(self):
        assert self.quadrant.accuracy == pytest.approx(0.80)

    def test_coverage(self):
        assert self.quadrant.coverage == pytest.approx(37 / 100)

    def test_jacobsen_confidence_misprediction_rate(self):
        assert self.quadrant.confidence_misprediction_rate == pytest.approx(
            21 / 100
        )


class TestQuadrantBasics:
    def test_record(self):
        quadrant = QuadrantCounts()
        quadrant.record(correct=True, high_confidence=True)
        quadrant.record(correct=True, high_confidence=False)
        quadrant.record(correct=False, high_confidence=True)
        quadrant.record(correct=False, high_confidence=False, weight=2.0)
        assert (quadrant.c_hc, quadrant.c_lc, quadrant.i_hc, quadrant.i_lc) == (
            1,
            1,
            1,
            2,
        )

    def test_normalized_sums_to_one(self):
        quadrant = QuadrantCounts(c_hc=10, i_hc=5, c_lc=3, i_lc=2).normalized()
        assert quadrant.total == pytest.approx(1.0)

    def test_normalized_preserves_metrics(self):
        quadrant = QuadrantCounts(c_hc=61, i_hc=2, c_lc=19, i_lc=18)
        normalized = quadrant.normalized()
        assert normalized.pvn == pytest.approx(quadrant.pvn)
        assert normalized.sens == pytest.approx(quadrant.sens)

    def test_empty_quadrant_has_no_ratios(self):
        quadrant = QuadrantCounts()
        assert quadrant.total == 0
        for name in METRIC_POPULATIONS:
            assert getattr(quadrant, name) is None, name

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            QuadrantCounts(c_hc=-1)

    def test_addition(self):
        total = QuadrantCounts(c_hc=1) + QuadrantCounts(i_lc=2)
        assert total.c_hc == 1 and total.i_lc == 2

    def test_summary_renders(self):
        text = QuadrantCounts(c_hc=61, i_hc=2, c_lc=19, i_lc=18).summary()
        assert "pvn" in text and "sens" in text

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_metric_identities(self, c_hc, i_hc, c_lc, i_lc):
        quadrant = QuadrantCounts(c_hc=c_hc, i_hc=i_hc, c_lc=c_lc, i_lc=i_lc)
        for name, (__, population) in METRIC_POPULATIONS.items():
            value = getattr(quadrant, name)
            if getattr(quadrant, population):
                assert 0.0 <= value <= 1.0
            else:
                assert value is None
        # SENS is a property of correct branches only; SPEC of incorrect
        scaled = QuadrantCounts(c_hc=c_hc, i_hc=3 * i_hc, c_lc=c_lc, i_lc=3 * i_lc)
        if c_hc or c_lc:
            assert scaled.sens == pytest.approx(quadrant.sens)
        if i_hc or i_lc:
            assert scaled.spec == pytest.approx(quadrant.spec)


class TestUndefinedMetrics:
    """Undefined ratios (empty denominator populations) are not zero:
    an estimator that never emits LC has no PVN at all."""

    all_hc = QuadrantCounts(c_hc=90, i_hc=10)  # no LC tags ever

    def test_ratio_is_none_only_on_an_empty_population(self):
        assert self.all_hc.pvn is None
        assert self.all_hc.coverage == 0.0
        assert self.all_hc.pvp == pytest.approx(0.9)
        assert self.all_hc.sens == 1.0
        assert self.all_hc.spec == 0.0
        assert self.all_hc.accuracy == pytest.approx(0.9)
        assert self.all_hc.misprediction_rate == pytest.approx(0.1)
        assert self.all_hc.confidence_misprediction_rate == pytest.approx(0.1)

    def test_true_zero_stays_a_number(self):
        # LC tags exist but every one is wrong: PVN is genuinely 0.0
        quadrant = QuadrantCounts(c_hc=5, c_lc=3)
        assert quadrant.pvn == 0.0

    def test_unknown_metric_rejected(self):
        from repro.metrics.stats import format_with_interval, metric_interval

        with pytest.raises(ValueError):
            format_with_interval(self.all_hc, "frobnication")
        with pytest.raises(ValueError):
            metric_interval(self.all_hc, "frobnication")

    def test_summary_renders_na_not_zero_percent(self):
        text = self.all_hc.summary()
        assert "pvn=   n/a" in text
        assert "pvn= 0.0%" not in text

    def test_table_formatters_map_none_to_na(self):
        from repro.harness.tables import pct, pct1

        assert pct(None) == "n/a"
        assert pct1(None) == "n/a"
        assert pct(0.0) != "n/a"

    def test_interval_formatting_maps_undefined_to_na(self):
        from repro.metrics.stats import format_with_interval

        assert format_with_interval(self.all_hc, "pvn") == "n/a"


class TestAveraging:
    def test_paper_style_average_uses_quadrants(self):
        heavy = QuadrantCounts(c_hc=90, i_hc=0, c_lc=0, i_lc=10)
        light = QuadrantCounts(c_hc=10, i_hc=10, c_lc=40, i_lc=40)
        average = average_quadrants([heavy, light])
        # mean of normalised quadrants, then ratios
        assert average.c_hc == pytest.approx((0.9 + 0.1) / 2)
        assert average.pvn == pytest.approx(
            ((0.10 + 0.40) / 2) / ((0.10 + 0.40) / 2 + (0 + 0.40) / 2)
        )

    def test_metric_means_differ_from_quadrant_average(self):
        one = QuadrantCounts(c_hc=99, i_hc=1, c_lc=0, i_lc=0)
        two = QuadrantCounts(c_hc=1, i_hc=99, c_lc=0, i_lc=0)
        quadrant_style = average_quadrants([one, two]).pvp
        metric_style = metric_means([one, two])["pvp"]
        assert quadrant_style == pytest.approx(0.5)
        assert metric_style == pytest.approx(0.5)
        # with unbalanced populations the two averaging styles diverge
        three = QuadrantCounts(c_hc=20, i_hc=0, c_lc=0, i_lc=80)  # sens 1.0
        four = QuadrantCounts(c_hc=50, i_hc=0, c_lc=50, i_lc=0)  # sens 0.5
        quadrant_sens = average_quadrants([three, four]).sens
        metric_sens = metric_means([three, four])["sens"]
        assert quadrant_sens == pytest.approx(0.35 / 0.60)
        assert metric_sens == pytest.approx(0.75)

    def test_empty_average_rejected(self):
        with pytest.raises(ValueError):
            average_quadrants([])
        with pytest.raises(ValueError):
            metric_means([])

    def test_metric_means_skip_undefined_metrics(self):
        no_lc = QuadrantCounts(c_hc=90, i_hc=10)  # PVN undefined
        some_lc = QuadrantCounts(c_hc=60, i_hc=10, c_lc=10, i_lc=20)
        means = metric_means([no_lc, some_lc])
        assert means["pvn"] == pytest.approx(some_lc.pvn)
        assert means["pvp"] == pytest.approx((no_lc.pvp + some_lc.pvp) / 2)
        assert metric_means([no_lc])["pvn"] is None


class TestParametric:
    def test_elisa_example_from_paper(self):
        """SENS 0.977, SPEC 0.926, disease prevalence 0.0001 -> PVP of a
        positive test for the *disease* is ~0.13%.  In our orientation
        the "disease" is a misprediction, so swap roles: PVN with
        accuracy 0.9999."""
        pvn = pvn_from(sens=0.926, spec=0.977, accuracy=0.9999)
        assert pvn == pytest.approx(0.001319, rel=0.01)

    def test_perfect_estimator(self):
        assert pvp_from(1.0, 1.0, 0.9) == pytest.approx(1.0)
        assert pvn_from(1.0, 1.0, 0.9) == pytest.approx(1.0)

    def test_quadrant_from_rates_consistency(self):
        c_hc, i_hc, c_lc, i_lc = quadrant_from_rates(0.7, 0.8, 0.9)
        quadrant = QuadrantCounts(c_hc=c_hc, i_hc=i_hc, c_lc=c_lc, i_lc=i_lc)
        assert quadrant.pvp == pytest.approx(pvp_from(0.7, 0.8, 0.9))
        assert quadrant.pvn == pytest.approx(pvn_from(0.7, 0.8, 0.9))
        assert quadrant.accuracy == pytest.approx(0.9)

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_closed_forms_match_quadrant_properties(self, sens, spec, accuracy):
        c_hc, i_hc, c_lc, i_lc = quadrant_from_rates(sens, spec, accuracy)
        quadrant = QuadrantCounts(c_hc=c_hc, i_hc=i_hc, c_lc=c_lc, i_lc=i_lc)
        assert quadrant.sens == pytest.approx(sens)
        assert quadrant.spec == pytest.approx(spec)
        assert quadrant.pvp == pytest.approx(pvp_from(sens, spec, accuracy))
        assert quadrant.pvn == pytest.approx(pvn_from(sens, spec, accuracy))

    def test_pvn_decreases_with_accuracy(self):
        """The paper's core observation: better predictors depress PVN."""
        low = pvn_from(0.6, 0.9, 0.85)
        high = pvn_from(0.6, 0.9, 0.95)
        assert high < low

    def test_curve_construction(self):
        curve = figure1_curve("sens", spec=0.7, accuracy=0.9, steps=10)
        assert len(curve.points) == 11
        assert len(curve.decile_markers()) == 11

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            figure1_curve("pvp", spec=0.7, accuracy=0.9)
        with pytest.raises(ValueError):
            figure1_curve("sens", sens=0.5, spec=0.7, accuracy=0.9)
        with pytest.raises(ValueError):
            figure1_curve("sens", accuracy=0.9)
        with pytest.raises(ValueError):
            figure1_curve("sens", spec=0.7)

    def test_family_has_five_curves(self):
        assert len(figure1_family()) == 5

    def test_range_validation(self):
        with pytest.raises(ValueError):
            pvp_from(1.5, 0.5, 0.5)
