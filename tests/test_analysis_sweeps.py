"""Tests for design-space sweeps, including the crucial consistency
property: one-pass histograms must equal direct estimator measurement."""

import pytest

from repro.analysis import (
    ValueHistogram,
    average_sweep_lines,
    distance_value_histogram,
    jrs_value_histogram,
)
from repro.analysis.sweeps import SweepLine, SweepPoint
from repro.confidence import JRSEstimator, MispredictionDistanceEstimator
from repro.engine import measure
from repro.metrics import QuadrantCounts
from repro.predictors import GsharePredictor


class TestValueHistogram:
    def test_quadrant_partial_sums(self):
        histogram = ValueHistogram(max_value=3)
        histogram.record(0, True)
        histogram.record(1, False)
        histogram.record(2, True)
        histogram.record(3, True)
        quadrant = histogram.quadrant(2)
        assert quadrant.c_hc == 2
        assert quadrant.i_hc == 0
        assert quadrant.c_lc == 1
        assert quadrant.i_lc == 1

    def test_values_clamp_to_max(self):
        histogram = ValueHistogram(max_value=2)
        histogram.record(50, True)
        assert histogram.correct[2] == 1

    def test_threshold_above_max_marks_all_low(self):
        histogram = ValueHistogram(max_value=3)
        histogram.record(3, True)
        histogram.record(3, False)
        quadrant = histogram.quadrant(4)
        assert quadrant.high_confidence == 0
        assert quadrant.pvn == pytest.approx(0.5)

    def test_sweep_line(self):
        histogram = ValueHistogram(max_value=3)
        histogram.record(1, True)
        line = histogram.sweep([0, 1, 2], "demo")
        assert [point.threshold for point in line.points] == [0, 1, 2]
        assert line.point(1).quadrant.c_hc == 1
        with pytest.raises(KeyError):
            line.point(9)


class TestSweepMeasureConsistency:
    """The single-pass histogram must reproduce the live estimators."""

    def test_jrs_histogram_matches_estimator(self, compress_trace):
        threshold = 15
        histogram = jrs_value_histogram(
            compress_trace, GsharePredictor(), table_size=4096, enhanced=True
        )
        sweep_quadrant = histogram.quadrant(threshold)
        predictor = GsharePredictor()
        direct = measure(
            compress_trace,
            predictor,
            {"jrs": JRSEstimator(table_size=4096, threshold=threshold, enhanced=True)},
        ).quadrants["jrs"]
        assert sweep_quadrant.c_hc == direct.c_hc
        assert sweep_quadrant.i_hc == direct.i_hc
        assert sweep_quadrant.c_lc == direct.c_lc
        assert sweep_quadrant.i_lc == direct.i_lc

    def test_jrs_histogram_matches_original_variant(self, compress_trace):
        histogram = jrs_value_histogram(
            compress_trace, GsharePredictor(), table_size=1024, enhanced=False
        )
        predictor = GsharePredictor()
        direct = measure(
            compress_trace,
            predictor,
            {"jrs": JRSEstimator(table_size=1024, threshold=8, enhanced=False)},
        ).quadrants["jrs"]
        quadrant = histogram.quadrant(8)
        assert (quadrant.c_hc, quadrant.i_hc, quadrant.c_lc, quadrant.i_lc) == (
            direct.c_hc,
            direct.i_hc,
            direct.c_lc,
            direct.i_lc,
        )

    def test_distance_histogram_matches_estimator(self, compress_trace):
        distance_threshold = 4
        histogram = distance_value_histogram(
            compress_trace, GsharePredictor(), max_distance=16
        )
        predictor = GsharePredictor()
        direct = measure(
            compress_trace,
            predictor,
            {"dist": MispredictionDistanceEstimator(distance_threshold)},
        ).quadrants["dist"]
        quadrant = histogram.quadrant(distance_threshold + 1)
        assert (quadrant.c_hc, quadrant.i_hc, quadrant.c_lc, quadrant.i_lc) == (
            direct.c_hc,
            direct.i_hc,
            direct.c_lc,
            direct.i_lc,
        )


class TestSweepShapes:
    def test_higher_threshold_trades_sens_for_spec(self, compress_trace):
        histogram = jrs_value_histogram(compress_trace, GsharePredictor())
        line = histogram.sweep(list(range(0, 17)), "gshare")
        sens_values = [point.quadrant.sens for point in line.points]
        spec_values = [point.quadrant.spec for point in line.points]
        assert sens_values == sorted(sens_values, reverse=True)
        assert spec_values == sorted(spec_values)

    def test_threshold_zero_marks_everything_high(self, compress_trace):
        histogram = jrs_value_histogram(compress_trace, GsharePredictor())
        quadrant = histogram.quadrant(0)
        assert quadrant.low_confidence == 0

    def test_unreachable_threshold_pvn_equals_misprediction_rate(
        self, compress_trace
    ):
        histogram = jrs_value_histogram(compress_trace, GsharePredictor())
        quadrant = histogram.quadrant(16)
        assert quadrant.high_confidence == 0
        assert quadrant.pvn == pytest.approx(quadrant.misprediction_rate)


class TestAveraging:
    def test_average_sweep_lines(self):
        line_a = SweepLine(
            "a",
            (SweepPoint(1, QuadrantCounts(c_hc=1, i_lc=1)),),
        )
        line_b = SweepLine(
            "b",
            (SweepPoint(1, QuadrantCounts(c_hc=3, i_lc=1)),),
        )
        merged = average_sweep_lines([line_a, line_b], "mean")
        assert merged.points[0].quadrant.c_hc == pytest.approx(
            (0.5 + 0.75) / 2
        )

    def test_mismatched_thresholds_rejected(self):
        line_a = SweepLine("a", (SweepPoint(1, QuadrantCounts(c_hc=1)),))
        line_b = SweepLine("b", (SweepPoint(2, QuadrantCounts(c_hc=1)),))
        with pytest.raises(ValueError):
            average_sweep_lines([line_a, line_b], "mean")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_sweep_lines([], "mean")
