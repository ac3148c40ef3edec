"""Tests for the selective dual-path (eager execution) pipeline."""

import pytest

from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.isa import Machine
from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor, SAgPredictor
from repro.speculation import EagerPipelineSimulator, compare_eager_execution
from repro.workloads import generate_program, get_profile


def program(name="go", iterations=30):
    return generate_program(get_profile(name), iterations=iterations)


def always_lc_factory(predictor):
    return JRSEstimator(threshold=16)  # unreachable: everything LC


def jrs_factory(predictor):
    return JRSEstimator(threshold=15, enhanced=True)


def compare_eager_both_ways(prog, estimator_factory):
    """``compare_eager_execution`` on its own and handed a finished
    baseline.  The given baseline is used as is and the eager side does
    not notice: both ways build the same comparison.
    """
    own = compare_eager_execution(prog, GsharePredictor, estimator_factory)
    baseline = PipelineSimulator(prog, GsharePredictor()).run()
    given = compare_eager_execution(
        prog, GsharePredictor, estimator_factory, baseline=baseline
    )
    assert given == own
    assert given.baseline_cycles == baseline.stats.cycles
    return given


def eager_and_baseline_stats(prog, estimator_factory):
    """The eager simulator after its run, and both runs' stats."""
    predictor = GsharePredictor()
    simulator = EagerPipelineSimulator(
        prog,
        predictor,
        estimators={"fork": estimator_factory(predictor)},
        fork_on="fork",
    )
    eager = simulator.run().stats
    baseline = PipelineSimulator(prog, GsharePredictor()).run().stats
    return simulator, eager, baseline


class TestCorrectness:
    """Dual path must not change what the program computes."""

    @pytest.mark.parametrize("name", ("compress", "go", "gcc"))
    def test_architectural_state_matches_functional_run(self, name):
        prog = program(name, iterations=10)
        predictor = GsharePredictor()
        simulator = EagerPipelineSimulator(
            prog,
            predictor,
            estimators={"fork": always_lc_factory(predictor)},
            fork_on="fork",
        )
        result = simulator.run()
        golden = Machine(prog)
        golden.run()
        assert simulator.machine.regs == golden.regs
        assert simulator.machine.memory == golden.memory
        assert result.stats.committed_instructions == golden.instructions_retired

    def test_prediction_accuracy_is_preserved(self):
        """Per-path history forking must leave the predictor exactly as
        accurate as in the single-path baseline."""
        prog = program("go", iterations=40)
        __, eager, baseline = eager_and_baseline_stats(prog, jrs_factory)
        assert eager.committed_accuracy_or_none() == pytest.approx(
            baseline.committed_accuracy_or_none(), abs=0.01
        )

    def test_non_speculative_predictor_also_correct(self):
        prog = program("compress", iterations=10)
        predictor = SAgPredictor()
        simulator = EagerPipelineSimulator(
            prog,
            predictor,
            estimators={"fork": always_lc_factory(predictor)},
            fork_on="fork",
        )
        result = simulator.run()
        golden = Machine(prog)
        golden.run()
        assert result.stats.committed_instructions == golden.instructions_retired


class TestMechanism:
    def test_covered_mispredictions_skip_the_flush(self):
        prog = program("go", iterations=40)
        simulator, eager, baseline = eager_and_baseline_stats(
            prog, always_lc_factory
        )
        assert simulator.eager_covered > 0
        # covered forks avoid squash work relative to the baseline
        assert eager.squashed_instructions < baseline.squashed_instructions

    def test_forks_dilute_fetch(self):
        prog = program("go", iterations=40)
        comparison = compare_eager_both_ways(prog, always_lc_factory)
        assert comparison.wasted_slots > 0

    def test_high_confidence_only_estimator_never_forks(self):
        prog = program("go", iterations=20)
        comparison = compare_eager_both_ways(
            prog, lambda p: JRSEstimator(threshold=0)
        )
        assert comparison.forks == 0
        assert comparison.speedup == pytest.approx(0.0, abs=0.02)

    def test_one_fork_at_a_time(self):
        prog = program("go", iterations=20)
        predictor = GsharePredictor()
        simulator = EagerPipelineSimulator(
            prog,
            predictor,
            estimators={"fork": always_lc_factory(predictor)},
            fork_on="fork",
            fast=False,
        )
        # run manually and check the invariant every cycle
        for __ in range(30_000):
            if simulator.done:
                break
            simulator.step_cycle()
            forked = [
                entry
                for entry in simulator._inflight
                if entry is simulator._active_fork
            ]
            assert len(forked) <= 1
        assert simulator.done

    def test_eager_beats_baseline_on_hard_workload(self):
        """The application-level claim: on a misprediction-heavy
        workload with a decent estimator, dual path wins cycles."""
        prog = program("go", iterations=50)
        comparison = compare_eager_both_ways(
            prog, lambda p: SaturatingCountersEstimator.for_predictor(p)
        )
        assert comparison.speedup > 0.02

    def test_fork_precision_and_coverage_ledger(self):
        prog = program("go", iterations=40)
        comparison = compare_eager_both_ways(prog, jrs_factory)
        assert 0.0 <= comparison.fork_precision <= 1.0
        assert 0.0 <= comparison.coverage <= 1.0
        assert comparison.covered_mispredictions <= comparison.forks

    def test_empty_run_has_no_ratios(self):
        # no budget, no cycles, no forks, no mispredictions: every
        # ratio is undefined, not a made-up 0.0
        comparison = compare_eager_execution(
            program("go", iterations=40),
            GsharePredictor,
            jrs_factory,
            max_instructions=0,
        )
        assert comparison.eager_cycles == 0
        assert comparison.speedup is None
        assert comparison.fork_precision is None
        assert comparison.coverage is None


class TestValidation:
    def test_fork_on_must_name_estimator(self):
        prog = program(iterations=5)
        predictor = GsharePredictor()
        with pytest.raises(ValueError, match=r"\(fork\).*got 'nope'"):
            EagerPipelineSimulator(
                prog,
                predictor,
                estimators={"fork": jrs_factory(predictor)},
                fork_on="nope",
            )
        with pytest.raises(ValueError, match=r"<none attached>"):
            EagerPipelineSimulator(prog, predictor, fork_on="fork")

    def test_negative_switch_penalty_rejected(self):
        prog = program(iterations=5)
        predictor = GsharePredictor()
        with pytest.raises(ValueError):
            EagerPipelineSimulator(
                prog,
                predictor,
                estimators={"fork": jrs_factory(predictor)},
                fork_on="fork",
                fork_switch_penalty=-1,
            )

    def test_baseline_of_other_work_rejected(self):
        # cycles over a 2,000-instruction baseline against a
        # 3,000-instruction eager run would read as a large loss
        prog = program("go", iterations=40)
        baseline = PipelineSimulator(prog, GsharePredictor()).run(
            max_instructions=2_000
        )
        with pytest.raises(ValueError, match="committed 2000 .* committed 3000"):
            compare_eager_execution(
                prog,
                GsharePredictor,
                jrs_factory,
                max_instructions=3_000,
                baseline=baseline,
            )
