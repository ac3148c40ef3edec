"""Behavioural tests for every confidence estimator."""

import pytest

from repro.confidence import (
    Assessment,
    BoostedEstimator,
    JRSEstimator,
    McFarlingVariant,
    MispredictionDistanceEstimator,
    PatternHistoryEstimator,
    SaturatingCountersEstimator,
    StaticEstimator,
    lick_confident_patterns,
    profile_confident_sites,
    profile_site_accuracy,
)
from repro.confidence.inlined import inlined_parts
from repro.predictors import GsharePredictor, SAgPredictor
from repro.predictors.base import Prediction


def prediction(taken=True, history=0, counters=(3,), index=0):
    return Prediction(
        taken=taken, index=index, history=history, counters=counters, snapshot=history
    )


class TestJRS:
    def test_counts_up_to_threshold(self):
        estimator = JRSEstimator(table_size=16, threshold=3, enhanced=False)
        pred = prediction(history=0)
        for expected_high, __ in zip((False, False, False, True, True), range(5)):
            assessment = estimator.estimate(4, pred)
            assert assessment.high_confidence == expected_high
            estimator.resolve(4, pred, True, assessment)  # correct

    def test_misprediction_resets(self):
        estimator = JRSEstimator(table_size=16, threshold=2, enhanced=False)
        pred = prediction(taken=True)
        for __ in range(5):
            assessment = estimator.estimate(4, pred)
            estimator.resolve(4, pred, True, assessment)
        assert estimator.estimate(4, pred).high_confidence
        assessment = estimator.estimate(4, pred)
        estimator.resolve(4, pred, False, assessment)  # mispredicted -> reset
        assert not estimator.estimate(4, pred).high_confidence

    def test_counters_saturate(self):
        estimator = JRSEstimator(table_size=16, counter_bits=4, threshold=15)
        pred = prediction()
        for __ in range(30):
            assessment = estimator.estimate(4, pred)
            estimator.resolve(4, pred, True, assessment)
        assert max(estimator.table.values) == 15

    def test_enhanced_index_separates_directions(self):
        estimator = JRSEstimator(table_size=16, threshold=1, enhanced=True)
        taken_pred = prediction(taken=True)
        not_taken_pred = prediction(taken=False)
        assessment = estimator.estimate(4, taken_pred)
        estimator.resolve(4, taken_pred, True, assessment)
        # the taken-direction counter trained; the not-taken one did not
        assert estimator.estimate(4, taken_pred).high_confidence
        assert not estimator.estimate(4, not_taken_pred).high_confidence

    def test_original_index_shares_directions(self):
        estimator = JRSEstimator(table_size=16, threshold=1, enhanced=False)
        taken_pred = prediction(taken=True)
        not_taken_pred = prediction(taken=False)
        assessment = estimator.estimate(4, taken_pred)
        estimator.resolve(4, taken_pred, True, assessment)
        assert estimator.estimate(4, not_taken_pred).high_confidence

    def test_index_uses_history(self):
        estimator = JRSEstimator(table_size=16, threshold=1, enhanced=False)
        pred_a = prediction(history=0b0101)
        pred_b = prediction(history=0b1010)
        assessment = estimator.estimate(0, pred_a)
        estimator.resolve(0, pred_a, True, assessment)
        assert estimator.estimate(0, pred_a).high_confidence
        assert not estimator.estimate(0, pred_b).high_confidence

    def test_unreachable_threshold_marks_everything_low(self):
        estimator = JRSEstimator(table_size=16, counter_bits=4, threshold=16)
        pred = prediction()
        for __ in range(40):
            assessment = estimator.estimate(4, pred)
            assert not assessment.high_confidence
            estimator.resolve(4, pred, True, assessment)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            JRSEstimator(counter_bits=4, threshold=17)

    def test_reset(self):
        estimator = JRSEstimator(table_size=16, threshold=1)
        pred = prediction()
        assessment = estimator.estimate(4, pred)
        estimator.resolve(4, pred, True, assessment)
        estimator.reset()
        assert not estimator.estimate(4, pred).high_confidence


class TestSaturatingCounters:
    def test_single_counter_strong_states(self):
        estimator = SaturatingCountersEstimator(counter_bits=2)
        assert estimator.estimate(0, prediction(counters=(0,))).high_confidence
        assert estimator.estimate(0, prediction(counters=(3,))).high_confidence
        assert not estimator.estimate(0, prediction(counters=(1,))).high_confidence
        assert not estimator.estimate(0, prediction(counters=(2,))).high_confidence

    @pytest.mark.parametrize(
        "variant,counters,expected",
        [
            (McFarlingVariant.BOTH_STRONG, (3, 3, 0), True),
            (McFarlingVariant.BOTH_STRONG, (3, 2, 0), False),
            (McFarlingVariant.BOTH_STRONG, (1, 0, 0), False),
            (McFarlingVariant.EITHER_STRONG, (3, 1, 0), True),
            (McFarlingVariant.EITHER_STRONG, (1, 0, 0), True),
            (McFarlingVariant.EITHER_STRONG, (1, 2, 0), False),
            (McFarlingVariant.SELECTED, (3, 1, 3), True),  # meta -> gshare
            (McFarlingVariant.SELECTED, (3, 1, 0), False),  # meta -> bimodal
        ],
    )
    def test_mcfarling_variants(self, variant, counters, expected):
        estimator = SaturatingCountersEstimator(counter_bits=2, variant=variant)
        assessment = estimator.estimate(0, prediction(counters=counters))
        assert assessment.high_confidence == expected

    def test_for_predictor_matches_counter_bits(self):
        predictor = GsharePredictor(counter_bits=3)
        estimator = SaturatingCountersEstimator.for_predictor(predictor)
        assert estimator.counter_bits == 3


class TestPatternHistory:
    def test_lick_pattern_set_contents(self):
        patterns = lick_confident_patterns(4)
        assert 0b0000 in patterns and 0b1111 in patterns  # always
        assert 0b1110 in patterns and 0b0111 in patterns  # once NT
        assert 0b0001 in patterns and 0b1000 in patterns  # once T
        assert 0b0101 in patterns and 0b1010 in patterns  # alternating
        assert 0b0011 not in patterns

    def test_pattern_count_grows_linearly(self):
        # 2 constants + 2n once-dissenting + 2 alternating (with overlap
        # for tiny widths); for n >= 3 this is exactly 2n + 4
        assert len(lick_confident_patterns(8)) == 20

    def test_estimate_matches_pattern(self):
        estimator = PatternHistoryEstimator(history_bits=4)
        assert estimator.estimate(0, prediction(history=0b1111)).high_confidence
        assert not estimator.estimate(0, prediction(history=0b0011)).high_confidence

    def test_for_predictor_uses_local_history_for_sag(self):
        estimator = PatternHistoryEstimator.for_predictor(SAgPredictor())
        assert estimator.history_bits == 13

    def test_for_predictor_uses_global_history_for_gshare(self):
        estimator = PatternHistoryEstimator.for_predictor(
            GsharePredictor(table_size=1024)
        )
        assert estimator.history_bits == 10

    def test_for_predictor_rejects_historyless(self):
        from repro.predictors import BimodalPredictor

        with pytest.raises(TypeError):
            PatternHistoryEstimator.for_predictor(BimodalPredictor())

    def test_validation(self):
        with pytest.raises(ValueError):
            lick_confident_patterns(0)


class TestStatic:
    def test_profiling_counts(self):
        trace = [(1, True)] * 9 + [(1, False)] + [(2, True), (2, False)]
        counts = profile_site_accuracy(trace, GsharePredictor(table_size=64))
        assert counts[1][1] == 10
        assert counts[2][1] == 2

    def test_threshold_selects_sites(self):
        # site 1 is perfectly biased, site 2 is a coin flip
        import random

        rng = random.Random(11)
        trace = []
        for __ in range(300):
            trace.append((1, True))
            trace.append((2, rng.random() < 0.5))
        sites = profile_confident_sites(trace, GsharePredictor(table_size=64), 0.90)
        assert 1 in sites
        assert 2 not in sites

    def test_estimator_uses_hint_bits(self):
        estimator = StaticEstimator({10, 20}, threshold=0.9)
        assert estimator.estimate(10, prediction()).high_confidence
        assert not estimator.estimate(11, prediction()).high_confidence

    def test_from_profile(self):
        trace = [(1, True)] * 400
        estimator = StaticEstimator.from_profile(
            trace, GsharePredictor(table_size=64)
        )
        assert estimator.estimate(1, prediction()).high_confidence

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            profile_confident_sites([], GsharePredictor(table_size=64), 1.5)


class TestDistance:
    def test_high_confidence_after_enough_distance(self):
        estimator = MispredictionDistanceEstimator(distance_threshold=2)
        pred = prediction(taken=True)
        flags = []
        for __ in range(5):
            assessment = estimator.estimate(0, pred)
            flags.append(assessment.high_confidence)
            estimator.resolve(0, pred, True, assessment)
        assert flags == [False, False, False, True, True]

    def test_reset_on_detected_misprediction(self):
        estimator = MispredictionDistanceEstimator(distance_threshold=1)
        pred = prediction(taken=True)
        for __ in range(4):
            assessment = estimator.estimate(0, pred)
            estimator.resolve(0, pred, True, assessment)
        assert estimator.estimate(0, pred).high_confidence
        assessment = estimator.estimate(0, pred)
        estimator.resolve(0, pred, False, assessment)  # misprediction detected
        assert not estimator.estimate(0, pred).high_confidence

    def test_counter_advances_at_estimate_time(self):
        estimator = MispredictionDistanceEstimator(distance_threshold=0)
        pred = prediction()
        first = estimator.estimate(0, pred)
        second = estimator.estimate(1, pred)
        assert not first.high_confidence  # distance 0 is not > 0
        assert second.high_confidence

    def test_validation(self):
        with pytest.raises(ValueError):
            MispredictionDistanceEstimator(distance_threshold=-1)

    def test_reset(self):
        estimator = MispredictionDistanceEstimator(distance_threshold=0)
        estimator.estimate(0, prediction())
        estimator.reset()
        assert estimator.branches_since_misprediction == 0


class TestAssessment:
    def test_repr(self):
        assert "HC" in repr(Assessment(True))
        assert "LC" in repr(Assessment(False))


class TestInlinedParts:
    """The rule the inversion pass and the fused pipeline loop share
    for the estimators they run with their state in locals."""

    def test_jrs_distance_and_boosts_over_them(self):
        jrs = JRSEstimator()
        distance = MispredictionDistanceEstimator(4)
        assert inlined_parts(jrs) == (jrs, 1, 0)
        assert inlined_parts(distance) == (distance, 1, 0)
        boosted = BoostedEstimator(jrs, k=3)
        boosted._lc_run = 2
        assert inlined_parts(boosted) == (jrs, 3, 2)

    def test_every_other_estimator_takes_the_protocol(self):
        class SubclassedJRS(JRSEstimator):
            pass

        for estimator in (
            SaturatingCountersEstimator(),
            SubclassedJRS(),
            BoostedEstimator(SaturatingCountersEstimator()),
            BoostedEstimator(BoostedEstimator(JRSEstimator())),
        ):
            assert inlined_parts(estimator) is None
