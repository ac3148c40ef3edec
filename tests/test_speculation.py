"""Tests for the speculation-control applications."""

import pytest

from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.pipeline import PipelineConfig, PipelineSimulator
from repro.predictors import GsharePredictor
from repro.speculation import (
    GatedPipelineSimulator,
    SMTSimulator,
    compare_gating,
    compare_policies,
    count_low_confidence_inflight,
    evaluate_eager_execution,
)
from repro.workloads import generate_program, get_profile


def program(name="compress", iterations=25):
    return generate_program(get_profile(name), iterations=iterations)


def jrs_factory(predictor):
    return JRSEstimator(threshold=15, enhanced=True)


def compare_gating_both_ways(prog, gate_threshold):
    """``compare_gating`` on its own and handed a finished baseline.

    The given baseline is used as is and the gated side does not
    notice: both ways build the same comparison.
    """
    own = compare_gating(prog, GsharePredictor, jrs_factory, gate_threshold)
    baseline = PipelineSimulator(prog, GsharePredictor()).run()
    given = compare_gating(
        prog, GsharePredictor, jrs_factory, gate_threshold, baseline=baseline
    )
    assert given == own
    assert given.baseline_cycles == baseline.stats.cycles
    assert given.baseline_squashed == baseline.stats.squashed_instructions
    return given


class TestGating:
    def test_gating_reduces_squashed_work(self):
        comparison = compare_gating_both_ways(program(iterations=60), 1)
        assert comparison.gated_squashed < comparison.baseline_squashed
        assert comparison.extra_work_reduction > 0.1
        assert comparison.gated_cycles > 0

    def test_gated_run_still_completes_correctly(self):
        prog = program(iterations=15)
        predictor = GsharePredictor()
        simulator = GatedPipelineSimulator(
            prog,
            predictor,
            estimators={"gate": jrs_factory(predictor)},
            gate_on="gate",
            gate_threshold=1,
        )
        result = simulator.run()
        from repro.isa import Machine

        golden = Machine(prog)
        golden.run()
        assert result.stats.committed_instructions == golden.instructions_retired

    def test_slowdown_is_modest(self):
        comparison = compare_gating_both_ways(program(iterations=60), 2)
        assert comparison.slowdown < 0.35

    def test_baseline_of_other_work_rejected(self):
        # cycles over a 2,000-instruction baseline against a
        # 3,000-instruction gated run would read as a large slowdown
        prog = program("go", iterations=40)
        baseline = PipelineSimulator(prog, GsharePredictor()).run(
            max_instructions=2_000
        )
        with pytest.raises(ValueError, match="committed 2000 .* committed 3000"):
            compare_gating(
                prog,
                GsharePredictor,
                jrs_factory,
                max_instructions=3_000,
                baseline=baseline,
            )

    def test_empty_run_has_no_ratios(self):
        # no budget, no cycles, nothing fetched or squashed: every ratio
        # is undefined, not a made-up 0.0
        comparison = compare_gating(
            program("go", iterations=40),
            GsharePredictor,
            jrs_factory,
            max_instructions=0,
        )
        assert comparison.baseline_cycles == 0
        assert comparison.baseline_extra_work is None
        assert comparison.gated_extra_work is None
        assert comparison.extra_work_reduction is None
        assert comparison.ipc_delta is None
        assert comparison.slowdown is None

    def test_gate_must_name_an_estimator(self):
        prog = program(iterations=5)
        predictor = GsharePredictor()
        with pytest.raises(ValueError, match=r"\(gate\).*got 'other'"):
            GatedPipelineSimulator(
                prog,
                predictor,
                estimators={"gate": jrs_factory(predictor)},
                gate_on="other",
            )
        with pytest.raises(ValueError, match=r"gate_threshold.*got 0.*'gate'"):
            GatedPipelineSimulator(
                prog,
                predictor,
                estimators={"gate": jrs_factory(predictor)},
                gate_on="gate",
                gate_threshold=0,
            )

    def test_gate_error_lists_available_estimators(self):
        prog = program(iterations=5)
        predictor = GsharePredictor()
        with pytest.raises(ValueError, match=r"\(dist, jrs\)"):
            GatedPipelineSimulator(
                prog,
                predictor,
                estimators={
                    "jrs": jrs_factory(predictor),
                    "dist": jrs_factory(predictor),
                },
                gate_on=None,
            )
        with pytest.raises(ValueError, match=r"<none attached>"):
            GatedPipelineSimulator(prog, predictor, gate_on="gate")

    def test_count_low_confidence_inflight(self):
        prog = program(iterations=10)
        predictor = GsharePredictor()
        simulator = PipelineSimulator(
            prog,
            predictor,
            config=PipelineConfig(resolve_stage=25),
            estimators={"jrs": JRSEstimator(threshold=16)},  # always LC
        )
        for __ in range(15):
            simulator.step_cycle()
        inflight_branches = sum(1 for e in simulator._inflight if e.is_branch)
        assert (
            count_low_confidence_inflight(simulator, "jrs") == inflight_branches
        )


class TestSMT:
    def test_both_policies_complete_all_threads(self):
        programs = [program("compress", 10), program("vortex", 10)]
        results = compare_policies(
            programs,
            GsharePredictor,
            lambda predictor: SaturatingCountersEstimator.for_predictor(predictor),
        )
        for result in results.values():
            assert all(
                thread.stats.committed_instructions > 0
                for thread in result.thread_results
            )

    def test_round_robin_rotates_fairly(self):
        programs = [program("vortex", 8), program("vortex", 8)]
        simulator = SMTSimulator(
            programs,
            GsharePredictor,
            lambda predictor: SaturatingCountersEstimator.for_predictor(predictor),
            policy="round_robin",
        )
        result = simulator.run()
        committed = [
            thread.stats.committed_instructions for thread in result.thread_results
        ]
        assert max(committed) - min(committed) < max(committed) * 0.2

    def test_confidence_policy_raises_throughput(self):
        """With a deep enough resolve window, steering fetch away from
        threads sitting behind low-confidence branches lifts aggregate
        IPC (the paper's SMT motivation)."""
        programs = [program("go", 25), program("go", 25)]
        results = compare_policies(
            programs,
            GsharePredictor,
            jrs_factory,
            config=PipelineConfig(resolve_stage=8),
        )
        assert (
            results["confidence"].aggregate_ipc
            > results["round_robin"].aggregate_ipc
        )

    def test_aggregate_statistics(self):
        programs = [program("compress", 8)]
        result = SMTSimulator(
            programs,
            GsharePredictor,
            jrs_factory,
            policy="round_robin",
        ).run()
        assert result.aggregate_ipc > 0
        assert result.committed_instructions > 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SMTSimulator([program()], GsharePredictor, jrs_factory, policy="magic")
        with pytest.raises(ValueError):
            SMTSimulator([], GsharePredictor, jrs_factory)


class TestEagerExecution:
    def _records(self):
        predictor = GsharePredictor()
        simulator = PipelineSimulator(
            program(iterations=50),
            predictor,
            estimators={
                "jrs": JRSEstimator(threshold=15),
                "satcnt": SaturatingCountersEstimator.for_predictor(predictor),
            },
        )
        return simulator.run().branch_records

    def test_accounting_identities(self):
        records = self._records()
        outcome = evaluate_eager_execution(records, "jrs")
        committed = [record for record in records if record.committed]
        lc = [record for record in committed if not record.assessments["jrs"]]
        assert outcome.forks == len(lc)
        assert outcome.covered_mispredictions == sum(
            1 for record in lc if record.mispredicted
        )
        assert outcome.fork_precision == pytest.approx(
            sum(1 for r in lc if r.mispredicted) / len(lc)
        )

    def test_coverage_is_spec(self):
        records = self._records()
        outcome = evaluate_eager_execution(records, "jrs")
        committed = [record for record in records if record.committed]
        mispredicted = [record for record in committed if record.mispredicted]
        covered = sum(1 for r in mispredicted if not r.assessments["jrs"])
        assert outcome.coverage == pytest.approx(covered / len(mispredicted))

    def test_net_cycles_prefers_high_pvn_estimators(self):
        records = self._records()
        jrs = evaluate_eager_execution(records, "jrs")
        satcnt = evaluate_eager_execution(records, "satcnt")
        better = max((jrs, satcnt), key=lambda outcome: outcome.fork_precision)
        # the estimator with the higher fork precision (PVN) wastes less
        assert better.net_cycles >= min(jrs.net_cycles, satcnt.net_cycles)

    def test_unknown_estimator_rejected(self):
        records = self._records()
        with pytest.raises(KeyError):
            evaluate_eager_execution(records, "nope")

    def test_dilution_validation(self):
        with pytest.raises(ValueError):
            evaluate_eager_execution([], "jrs", dilution=2.0)

    def test_no_records_have_no_ratios(self):
        outcome = evaluate_eager_execution([], "jrs")
        assert outcome.forks == outcome.net_cycles == 0
        assert outcome.fork_precision is None
        assert outcome.coverage is None


class TestAdaptivePolicy:
    def test_adaptive_policy_runs_and_completes(self):
        programs = [program("compress", 8), program("go", 8)]
        results = compare_policies(
            programs,
            GsharePredictor,
            jrs_factory,
        )
        assert set(results) == {"round_robin", "confidence", "adaptive"}
        for result in results.values():
            assert all(t.stats.committed_instructions > 0 for t in result.thread_results)

    def test_adaptive_at_least_matches_round_robin(self):
        from repro.pipeline import PipelineConfig

        programs = [program("go", 25), program("gcc", 25)]
        results = compare_policies(
            programs,
            GsharePredictor,
            jrs_factory,
            config=PipelineConfig(resolve_stage=8),
        )
        assert (
            results["adaptive"].aggregate_ipc
            >= results["round_robin"].aggregate_ipc - 0.01
        )

    def test_squash_ewma_decays(self):
        simulator = SMTSimulator(
            [program("go", 6)],
            GsharePredictor,
            jrs_factory,
            policy="adaptive",
        )
        simulator._squash_ewma[0] = 100.0
        simulator._last_squashed[0] = simulator.threads[0].stats.squashed_instructions
        simulator._update_squash_ewma()
        assert simulator._squash_ewma[0] < 100.0
