"""Behavioural tests for the four branch predictors."""

import pytest

from repro.predictors import (
    BimodalPredictor,
    GsharePredictor,
    McFarlingPredictor,
    SAgPredictor,
    make_predictor,
)


def teach(predictor, pc, taken, times=1):
    for __ in range(times):
        prediction = predictor.predict(pc)
        predictor.resolve(pc, taken, prediction)
    return prediction


class TestBimodal:
    def test_learns_a_bias(self):
        predictor = BimodalPredictor(table_size=64)
        teach(predictor, 5, True, times=4)
        assert predictor.predict(5).taken

    def test_sites_are_independent(self):
        predictor = BimodalPredictor(table_size=64)
        teach(predictor, 5, True, times=4)
        teach(predictor, 6, False, times=4)
        assert predictor.predict(5).taken
        assert not predictor.predict(6).taken

    def test_prediction_carries_counter(self):
        predictor = BimodalPredictor(table_size=64)
        prediction = predictor.predict(3)
        assert prediction.counters == (1,)  # weak not-taken initial

    def test_reset(self):
        predictor = BimodalPredictor(table_size=64)
        teach(predictor, 5, True, times=4)
        predictor.reset()
        assert not predictor.predict(5).taken


class TestGshare:
    def test_learns_history_correlated_branch(self):
        """Outcome = previous branch's outcome: gshare learns it."""
        predictor = GsharePredictor(table_size=256, history_bits=8)
        import random

        rng = random.Random(3)
        correct = 0
        total = 0
        for round_number in range(600):
            lead = rng.random() < 0.5
            prediction = predictor.predict(100)
            predictor.resolve(100, lead, prediction)
            follower_prediction = predictor.predict(200)
            predictor.resolve(200, lead, follower_prediction)
            if round_number > 300:
                total += 1
                correct += follower_prediction.taken == lead
        assert correct / total > 0.95

    def test_speculative_history_contains_prediction(self):
        predictor = GsharePredictor(table_size=64, history_bits=6)
        prediction = predictor.predict(1)
        assert predictor.history.value & 1 == int(prediction.taken)

    def test_history_repair_on_misprediction(self):
        predictor = GsharePredictor(table_size=64, history_bits=6)
        prediction = predictor.predict(1)
        # wrong-path pollution: more predictions that will be squashed
        predictor.predict(2)
        predictor.predict(3)
        actual = not prediction.taken
        predictor.resolve(1, actual, prediction)
        expected = ((prediction.snapshot << 1) | int(actual)) & predictor.history.mask
        assert predictor.history.value == expected

    def test_correct_resolution_keeps_speculative_bit(self):
        predictor = GsharePredictor(table_size=64, history_bits=6)
        prediction = predictor.predict(1)
        history_after_predict = predictor.history.value
        predictor.resolve(1, prediction.taken, prediction)
        assert predictor.history.value == history_after_predict

    def test_non_speculative_variant_updates_at_resolve(self):
        predictor = GsharePredictor(
            table_size=64, history_bits=6, speculative_history=False
        )
        predictor.predict(1)
        assert predictor.history.value == 0
        prediction = predictor.predict(1)
        predictor.resolve(1, True, prediction)
        assert predictor.history.value == 1

    def test_default_history_bits_match_table(self):
        assert GsharePredictor(table_size=4096).history.bits == 12


class TestMcFarling:
    def test_meta_learns_to_pick_the_better_component(self):
        """A PC-biased branch with noisy history: bimodal side wins."""
        predictor = McFarlingPredictor(table_size=256, history_bits=8)
        import random

        rng = random.Random(9)
        # scramble global history with a random branch, then present a
        # branch that is 100% taken: gshare's contexts stay cold, the
        # bimodal component nails it, and the meta should migrate
        correct = 0
        total = 0
        for round_number in range(800):
            noise_prediction = predictor.predict(7)
            predictor.resolve(7, rng.random() < 0.5, noise_prediction)
            prediction = predictor.predict(300)
            predictor.resolve(300, True, prediction)
            if round_number > 400:
                total += 1
                correct += prediction.taken
        assert correct / total > 0.9

    def test_prediction_carries_three_counters(self):
        predictor = McFarlingPredictor(table_size=64)
        assert len(predictor.predict(3).counters) == 3

    def test_meta_unchanged_when_components_agree(self):
        predictor = McFarlingPredictor(table_size=64)
        prediction = predictor.predict(3)
        meta_before = list(predictor.meta_table.values)
        # both components initialised weak-not-taken: they agree
        predictor.resolve(3, False, prediction)
        assert predictor.meta_table.values == meta_before

    def test_history_repair_on_misprediction(self):
        predictor = McFarlingPredictor(table_size=64, history_bits=6)
        prediction = predictor.predict(1)
        predictor.predict(2)
        actual = not prediction.taken
        predictor.resolve(1, actual, prediction)
        expected = ((prediction.snapshot << 1) | int(actual)) & predictor.history.mask
        assert predictor.history.value == expected


class TestSAg:
    def test_learns_alternating_pattern(self):
        predictor = SAgPredictor(history_entries=64, history_bits=6, pht_size=256)
        outcome = False
        correct = 0
        total = 0
        for round_number in range(200):
            outcome = not outcome
            prediction = predictor.predict(10)
            predictor.resolve(10, outcome, prediction)
            if round_number > 100:
                total += 1
                correct += prediction.taken == outcome
        assert correct / total > 0.95

    def test_prediction_history_is_local(self):
        predictor = SAgPredictor(history_entries=64, history_bits=6, pht_size=256)
        teach(predictor, 10, True, times=3)
        teach(predictor, 11, False, times=3)
        assert predictor.predict(10).history == 0b111
        assert predictor.predict(11).history == 0b000

    def test_no_speculative_snapshot(self):
        predictor = SAgPredictor()
        assert predictor.predict(5).snapshot is None

    def test_paper_default_geometry(self):
        predictor = SAgPredictor()
        assert predictor.bht.entries == 2048
        assert predictor.bht.bits == 13
        assert predictor.pht.size == 8192


class TestFactory:
    def test_make_predictor_names(self):
        for name in ("gshare", "mcfarling", "sag", "bimodal"):
            assert make_predictor(name).name == name

    def test_unknown_predictor(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            make_predictor("tage")

    def test_kwargs_forwarded(self):
        predictor = make_predictor("gshare", table_size=64)
        assert predictor.table.size == 64
