"""Tests for prediction inversion (the §2.2 negative result)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
)
from repro.engine import columnar_run, measure_accuracy, measure_bank, workload_run
from repro.harness import SPECULATION_ESTIMATORS
from repro.predictors import GsharePredictor
from repro.speculation import (
    InversionResult,
    InvertingPredictor,
    evaluate_inversion,
)
from repro.speculation.inversion import _inlinable
from repro.workloads import SUITE


class TestInvertingPredictor:
    def test_flips_low_confidence_directions(self):
        base = GsharePredictor(table_size=64)
        # JRS threshold 16 is unreachable: everything low-confidence
        wrapper = InvertingPredictor(base, JRSEstimator(table_size=64, threshold=16))
        reference = GsharePredictor(table_size=64)
        for pc in (1, 2, 3, 4):
            flipped = wrapper.predict(pc)
            plain = reference.predict(pc)
            assert flipped.taken != plain.taken
            wrapper.resolve(pc, plain.taken, flipped)
            reference.resolve(pc, plain.taken, plain)
        assert wrapper.flips == 4

    def test_high_confidence_directions_pass_through(self):
        base = GsharePredictor(table_size=64)
        # threshold 0 marks everything high-confidence
        wrapper = InvertingPredictor(base, JRSEstimator(table_size=64, threshold=0))
        reference = GsharePredictor(table_size=64)
        prediction = wrapper.predict(7)
        assert prediction.taken == reference.predict(7).taken
        assert wrapper.flips == 0

    def test_underlying_predictor_trains_unchanged(self):
        """The wrapper must not perturb the substrate's learning."""
        trace = list(workload_run("compress", 40).trace)
        wrapped_base = GsharePredictor()
        wrapper = InvertingPredictor(
            wrapped_base, MispredictionDistanceEstimator(4)
        )
        for pc, taken in trace:
            prediction = wrapper.predict(pc)
            wrapper.resolve(pc, taken, prediction)
        reference = GsharePredictor()
        for pc, taken in trace:
            prediction = reference.predict(pc)
            reference.resolve(pc, taken, prediction)
        assert wrapped_base.table.values == reference.table.values
        assert wrapped_base.history.value == reference.history.value

    def test_reset(self):
        wrapper = InvertingPredictor(
            GsharePredictor(table_size=64),
            JRSEstimator(table_size=64, threshold=16),
        )
        wrapper.predict(1)
        wrapper.reset()
        assert wrapper.flips == 0


class TestEvaluateInversion:
    def test_ledger_identities(self, compress_trace):
        (result,) = evaluate_inversion(
            compress_trace, GsharePredictor(), {"jrs": JRSEstimator(threshold=15)}
        ).values()
        assert result.branches == len(compress_trace)
        assert result.flips == result.flips_helped + result.flips_hurt
        assert result.accuracy_delta == pytest.approx(
            (result.flips_helped - result.flips_hurt) / result.branches
        )
        assert result.flip_pvn == pytest.approx(
            result.flips_helped / result.flips
        )

    def test_base_accuracy_matches_measure(self, compress_trace):
        (result,) = evaluate_inversion(
            compress_trace, GsharePredictor(), {"jrs": JRSEstimator(threshold=15)}
        ).values()
        reference = measure_accuracy(compress_trace, GsharePredictor())
        assert result.base_accuracy == pytest.approx(reference.accuracy)

    def test_break_even_is_pvn_fifty_percent(self, compress_trace):
        (result,) = evaluate_inversion(
            compress_trace, GsharePredictor(), {"jrs": JRSEstimator(threshold=15)}
        ).values()
        assert result.flips > 0
        if result.flip_pvn < 0.5:
            assert result.accuracy_delta < 0
        else:
            assert result.accuracy_delta >= 0

    def test_papers_negative_result_holds_here(self):
        """No standard estimator config turns inversion into a win."""
        for workload in ("compress", "go"):
            trace = workload_run(workload, 100).trace
            results = evaluate_inversion(
                trace,
                GsharePredictor(),
                {f"jrs>={t}": JRSEstimator(threshold=t) for t in (8, 15)},
            )
            for name, result in results.items():
                assert result.accuracy_delta < 0, (workload, name)

    def test_nothing_flipped_has_no_flip_pvn(self, compress_trace):
        # threshold 0 marks every branch high-confidence
        (result,) = evaluate_inversion(
            compress_trace, GsharePredictor(), {"jrs": JRSEstimator(threshold=0)}
        ).values()
        assert result.flips == 0
        assert result.flip_pvn is None
        assert result.accuracy_delta == 0

    def test_empty_stream_has_no_accuracy(self):
        # no branch, no accuracy: a made-up 0.0 would read as "always wrong"
        result = evaluate_inversion([], GsharePredictor(), {"jrs": JRSEstimator()})
        ledger = result["jrs"]
        assert ledger.branches == 0
        assert ledger.base_accuracy is None
        assert ledger.inverted_accuracy is None
        assert ledger.accuracy_delta is None

    def test_one_estimator_is_rejected_with_a_hint(self, compress_trace):
        with pytest.raises(TypeError, match="mapping"):
            evaluate_inversion(compress_trace, GsharePredictor(), JRSEstimator())


# ----------------------------------------------------------------------
# the inlined pass against its references
# ----------------------------------------------------------------------


class LoopDistance(MispredictionDistanceEstimator):
    """Behaves exactly like its base; its type keeps a mix off the
    inlined pass, so the predict/estimate/resolve loop runs."""


#: One estimator: ("jrs", threshold, enhanced, table size, k) or
#: ("distance", threshold, k); k = 0 leaves it unboosted.
estimator_specs = st.one_of(
    st.tuples(
        st.just("jrs"),
        st.integers(0, 16),  # 16 is unreachable with 4-bit counters
        st.booleans(),
        st.sampled_from((16, 32, 64, 128, 256)),
        st.integers(0, 3),
    ),
    st.tuples(st.just("distance"), st.integers(0, 8), st.integers(0, 3)),
)

random_traces = st.lists(
    st.tuples(st.integers(0, 511), st.booleans()), max_size=300
)


def build_estimator(spec):
    if spec[0] == "jrs":
        __, threshold, enhanced, size, k = spec
        estimator = JRSEstimator(
            table_size=size, threshold=threshold, enhanced=enhanced
        )
    else:
        __, threshold, k = spec
        estimator = MispredictionDistanceEstimator(threshold)
    return BoostedEstimator(estimator, k=k) if k else estimator


def estimator_state(estimator):
    """What an estimator has learnt (the engine-identity tests of the
    pipeline compare it too)."""
    if isinstance(estimator, BoostedEstimator):
        return ("boost", estimator._lc_run, estimator_state(estimator.base))
    if isinstance(estimator, JRSEstimator):
        return ("jrs", list(estimator.table.values))
    if isinstance(estimator, MispredictionDistanceEstimator):
        return ("distance", estimator.branches_since_misprediction)
    return ("stateless",)  # saturating counters, pattern, static


def predictor_state(predictor):
    return list(predictor.table.values), predictor.history.value


class TestInlinedPass:
    @settings(max_examples=150, deadline=None)
    @given(
        table_size=st.sampled_from((16, 32, 64, 128, 256)),
        specs=st.lists(estimator_specs, min_size=1, max_size=4),
        trace=random_traces,
        split=st.integers(0, 300),
    )
    def test_equals_the_protocol_loop(self, table_size, specs, trace, split):
        inlined_predictor = GsharePredictor(table_size=table_size)
        inlined = {str(i): build_estimator(spec) for i, spec in enumerate(specs)}
        loop_predictor = GsharePredictor(table_size=table_size)
        loop = {str(i): build_estimator(spec) for i, spec in enumerate(specs)}
        loop["forces the loop"] = LoopDistance(0)
        assert _inlinable(inlined_predictor, inlined)
        assert not _inlinable(loop_predictor, loop)
        # two calls: the second starts from the state the first left
        for part in (trace[:split], trace[split:]):
            fast = evaluate_inversion(part, inlined_predictor, inlined)
            slow = evaluate_inversion(part, loop_predictor, loop)
            for name in inlined:
                assert fast[name] == slow[name]
            assert predictor_state(inlined_predictor) == predictor_state(
                loop_predictor
            )
            for name, estimator in inlined.items():
                assert estimator_state(estimator) == estimator_state(loop[name])

    @settings(max_examples=100, deadline=None)
    @given(
        table_size=st.sampled_from((16, 32, 64, 128, 256)),
        specs=st.lists(estimator_specs, min_size=1, max_size=3),
        trace=random_traces,
    )
    def test_equals_the_inverting_predictor(self, table_size, specs, trace):
        results = evaluate_inversion(
            trace,
            GsharePredictor(table_size=table_size),
            {str(i): build_estimator(spec) for i, spec in enumerate(specs)},
        )
        for i, spec in enumerate(specs):
            wrapper = InvertingPredictor(
                GsharePredictor(table_size=table_size), build_estimator(spec)
            )
            base_correct = helped = hurt = 0
            for pc, taken in trace:
                prediction = wrapper.predict(pc)
                inner = prediction.app_state[0]
                if inner.taken == taken:
                    base_correct += 1
                    hurt += prediction.taken != inner.taken
                else:
                    helped += prediction.taken != inner.taken
                wrapper.resolve(pc, taken, prediction)
            assert results[str(i)] == InversionResult(
                branches=len(trace),
                base_correct=base_correct,
                flips=wrapper.flips,
                flips_helped=helped,
                flips_hurt=hurt,
            )

    @pytest.mark.parametrize("workload", SUITE)
    def test_equals_the_estimator_bank_quadrants(self, workload):
        predictor = GsharePredictor()
        results = evaluate_inversion(
            workload_run(workload, 40).trace,
            predictor,
            {name: factory(predictor) for name, factory in SPECULATION_ESTIMATORS.items()},
        )
        predictor = GsharePredictor()
        bank = measure_bank(
            columnar_run(workload, 40),
            predictor,
            {name: factory(predictor) for name, factory in SPECULATION_ESTIMATORS.items()},
        )
        assert set(results) == set(SPECULATION_ESTIMATORS)
        for name, result in results.items():
            quadrant = bank.quadrant(name)
            assert result.branches == quadrant.total
            assert result.base_correct == quadrant.c_hc + quadrant.c_lc
            assert result.flips == quadrant.c_lc + quadrant.i_lc
            assert result.flips_helped == quadrant.i_lc
            assert result.flips_hurt == quadrant.c_lc

    def test_estimators_sharing_state_take_the_protocol_loop(self, compress_trace):
        def shared_mix(extra):
            distance = MispredictionDistanceEstimator(4)
            jrs = JRSEstimator()
            return {
                "distance": distance,
                "boosted": BoostedEstimator(distance, k=2),
                "jrs": jrs,
                "jrs again": jrs,
                **extra,
            }

        shared = shared_mix({})
        assert not _inlinable(GsharePredictor(), shared)
        results = evaluate_inversion(compress_trace, GsharePredictor(), shared)
        loop = evaluate_inversion(
            compress_trace,
            GsharePredictor(),
            shared_mix({"forces the loop": LoopDistance(0)}),
        )
        for name in shared:
            assert results[name] == loop[name]

    @pytest.mark.parametrize("forced_loop", (False, True))
    def test_empty_trace(self, forced_loop):
        predictor = GsharePredictor(table_size=64)
        estimators = {
            "jrs": JRSEstimator(table_size=64),
            "boosted": BoostedEstimator(MispredictionDistanceEstimator(2), k=2),
        }
        if forced_loop:
            estimators["loop"] = LoopDistance(0)
        before = predictor_state(predictor)
        states = {name: estimator_state(e) for name, e in estimators.items()}
        results = evaluate_inversion([], predictor, estimators)
        assert set(results) == set(estimators)
        for result in results.values():
            assert result == InversionResult(0, 0, 0, 0, 0)
            assert result.flip_pvn is None
            assert result.base_accuracy is None
            assert result.inverted_accuracy is None
            assert result.accuracy_delta is None
        assert predictor_state(predictor) == before
        assert {name: estimator_state(e) for name, e in estimators.items()} == states
