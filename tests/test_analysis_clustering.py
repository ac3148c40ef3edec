"""Tests for mis-estimation clustering and boosting measurement."""

import pytest

from repro.analysis import (
    BoostingObserver,
    MisestimationDistanceObserver,
    measure_boosting,
    misestimation_distance,
)
from repro.confidence import (
    BoostingAccumulator,
    JRSEstimator,
    MispredictionDistanceEstimator,
    boosted_pvn,
)
from repro.engine import lower_trace, measure, misestimation_pairs
from repro.predictors import GsharePredictor
from test_analysis_distance import _curve_from_pairs, columns_curve


class TestMisestimationDistance:
    def test_curve_covers_all_branches(self, compress_trace):
        curve = misestimation_distance(
            compress_trace, GsharePredictor(), JRSEstimator(threshold=15)
        )
        assert curve.total_branches == len(compress_trace)

    def test_misestimation_definition(self):
        """On a perfectly predicted trace with an always-LC estimator,
        every branch is mis-estimated (LC but correct)."""
        trace = [(1, True)] * 64
        # JRS threshold 16 is unreachable: always low confidence
        curve = misestimation_distance(
            trace,
            GsharePredictor(table_size=64, history_bits=4),
            JRSEstimator(table_size=64, threshold=16),
        )
        # once the predictor warms up every branch is correct yet LC
        assert curve.buckets[0].misprediction_rate > 0.9

    def test_vector_and_scalar_curves_match_loop_reference(self, compress_trace):
        """Both paths count the observer's pair stream exactly as the
        per-pair loop does."""
        observer = MisestimationDistanceObserver()
        measure(
            compress_trace,
            GsharePredictor(),
            {observer.estimator_name: JRSEstimator(threshold=15)},
            observers=[observer],
        )
        expected = _curve_from_pairs(observer.pairs, "mis-estimation", 12)
        columnar = lower_trace(compress_trace)
        assert misestimation_pairs(
            columnar, GsharePredictor(), JRSEstimator(threshold=15)
        ) is not None
        for trace in (compress_trace, columnar):
            curve = misestimation_distance(
                trace, GsharePredictor(), JRSEstimator(threshold=15)
            )
            assert curve == expected


class TestMultiEstimatorObservers:
    """Regression: the observers used to do ``(high,) = flags.values()``
    and raised ValueError the moment ``measure()`` carried zero or
    several estimators (exactly what the gating sweeps do)."""

    def test_two_estimators_at_once(self, compress_trace):
        """Measuring two estimators concurrently must not crash, and the
        named estimator's curve must match a single-estimator run."""
        observer = MisestimationDistanceObserver("jrs")
        measure(
            compress_trace,
            GsharePredictor(),
            {
                "jrs": JRSEstimator(threshold=15),
                "dist": MispredictionDistanceEstimator(4),
            },
            observers=[observer],
        )
        solo = misestimation_distance(
            compress_trace, GsharePredictor(), JRSEstimator(threshold=15)
        )
        paired = columns_curve(observer.pairs, "mis-estimation", 12)
        assert paired.buckets == solo.buckets

    def test_boosting_observer_with_two_estimators(self, compress_trace):
        accumulator = BoostingAccumulator([1, 2])
        observer = BoostingObserver(accumulator, "jrs")
        measure(
            compress_trace,
            GsharePredictor(),
            {
                "jrs": JRSEstimator(threshold=15),
                "dist": MispredictionDistanceEstimator(4),
            },
            observers=[observer],
        )
        solo = measure_boosting(
            compress_trace, GsharePredictor(), JRSEstimator(threshold=15), ks=[1, 2]
        )
        for mine, theirs in zip(accumulator.results(), solo):
            assert mine.events == theirs.events
            assert mine.events_with_misprediction == theirs.events_with_misprediction

    def test_zero_estimators_do_not_crash(self, compress_trace):
        """An estimator-less measurement simply never feeds the observers."""
        distance_observer = MisestimationDistanceObserver("jrs")
        boosting_observer = BoostingObserver(BoostingAccumulator([1]), "jrs")
        measure(
            compress_trace,
            GsharePredictor(),
            {},
            observers=[distance_observer, boosting_observer],
        )
        assert distance_observer.pairs == []
        assert boosting_observer.accumulator.results()[0].events == 0

    def test_absent_name_is_skipped(self, compress_trace):
        """Flags for other estimators are ignored, not misattributed."""
        observer = MisestimationDistanceObserver("missing")
        measure(
            compress_trace,
            GsharePredictor(),
            {"jrs": JRSEstimator(threshold=15)},
            observers=[observer],
        )
        assert observer.pairs == []


class TestMeasureBoosting:
    def test_results_for_each_k(self, compress_trace):
        results = measure_boosting(
            compress_trace,
            GsharePredictor(),
            JRSEstimator(threshold=15),
            ks=[1, 2, 3],
        )
        assert [result.k for result in results] == [1, 2, 3]
        # larger windows mean fewer qualifying events
        assert results[0].events >= results[1].events >= results[2].events

    def test_k1_empirical_equals_base_pvn(self, compress_trace):
        (result,) = measure_boosting(
            compress_trace, GsharePredictor(), JRSEstimator(threshold=15), ks=[1]
        )
        assert result.empirical_pvn == pytest.approx(result.base_pvn)
        assert result.analytic_pvn == pytest.approx(result.base_pvn)

    def test_boosting_raises_pvn(self, compress_trace):
        results = measure_boosting(
            compress_trace,
            GsharePredictor(),
            JRSEstimator(threshold=15),
            ks=[1, 2],
        )
        assert results[1].empirical_pvn > results[0].empirical_pvn

    def test_empirical_tracks_bernoulli_model(self, gcc_trace):
        """The paper's §4.2 argument: because mis-estimations are only
        slightly clustered, 1-(1-pvn)^k approximates the measured value."""
        results = measure_boosting(
            gcc_trace, GsharePredictor(), JRSEstimator(threshold=15), ks=[2]
        )
        (result,) = results
        assert result.empirical_pvn == pytest.approx(
            boosted_pvn(result.base_pvn, 2), abs=0.08
        )
