"""Tests for the binomial statistics over quadrant metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QuadrantCounts
from repro.metrics.quadrant import METRIC_POPULATIONS
from repro.metrics.stats import (
    format_with_interval,
    metric_interval,
    wilson_interval,
)


class TestWilsonInterval:
    def test_known_value(self):
        # 8/10 at 95%: classic Wilson example, (0.49, 0.94) to 2dp
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4902, abs=0.002)
        assert high == pytest.approx(0.9433, abs=0.002)

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_extremes_stay_in_unit_interval(self):
        low, high = wilson_interval(10, 10)
        assert 0.0 <= low <= high <= 1.0
        assert high == pytest.approx(1.0, abs=1e-9)

    def test_narrower_with_more_data(self):
        low_small, high_small = wilson_interval(80, 100)
        low_big, high_big = wilson_interval(8000, 10000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_confidence_levels(self):
        low90, high90 = wilson_interval(50, 100, confidence=0.90)
        low99, high99 = wilson_interval(50, 100, confidence=0.99)
        assert (high99 - low99) > (high90 - low90)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, confidence=0.8)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    )
    def test_contains_point_estimate(self, successes, extra):
        trials = successes + extra
        low, high = wilson_interval(successes, trials)
        assert low <= successes / trials <= high
        assert 0.0 <= low <= high <= 1.0


class TestMetricInterval:
    quadrant = QuadrantCounts(c_hc=610, i_hc=20, c_lc=190, i_lc=180)

    def test_uses_right_population(self):
        low, high = metric_interval(self.quadrant, "pvn")
        assert low <= self.quadrant.pvn <= high
        # PVN population is only 370 branches: wider than accuracy's 1000
        acc_low, acc_high = metric_interval(self.quadrant, "accuracy")
        assert (high - low) > (acc_high - acc_low)

    def test_every_metric_supported(self):
        for metric in METRIC_POPULATIONS:
            low, high = metric_interval(self.quadrant, metric)
            assert low <= getattr(self.quadrant, metric) <= high

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            metric_interval(self.quadrant, "coverage2")

    def test_format(self):
        text = format_with_interval(self.quadrant, "pvn")
        assert "±" in text and "%" in text


class TestOnRealMeasurement:
    def test_intervals_cover_rerun_variation(self, compress_trace):
        """Measured PVN on two disjoint halves of a workload: each
        half's interval should (usually) cover the other's estimate."""
        from repro.confidence import JRSEstimator
        from repro.engine import measure
        from repro.predictors import GsharePredictor

        records = list(compress_trace)
        half = len(records) // 2
        quadrants = []
        for part in (records[:half], records[half:]):
            result = measure(
                part, GsharePredictor(), {"jrs": JRSEstimator(threshold=15)}
            )
            quadrants.append(result.quadrants["jrs"])
        low, high = metric_interval(quadrants[0], "pvn", confidence=0.99)
        assert low - 0.05 <= quadrants[1].pvn <= high + 0.05
