"""Integration tests for the speculative pipeline simulator."""

import dataclasses
import pickle

import pytest

from repro.confidence import JRSEstimator, MispredictionDistanceEstimator
from repro.engine import workload_program
from repro.isa import Machine
from repro.pipeline import PipelineConfig, PipelineSimulator
from repro.predictors import GsharePredictor, SAgPredictor, make_predictor
from repro.workloads import generate_program, get_profile


def small_program(name="compress", iterations=30):
    return generate_program(get_profile(name), iterations=iterations)


class TestGoldenEquivalence:
    """Committed execution must equal pure functional execution."""

    @pytest.mark.parametrize("name", ("compress", "gcc", "go", "vortex"))
    def test_architectural_state_matches_functional_run(self, name):
        program = small_program(name, iterations=8)
        simulator = PipelineSimulator(program, GsharePredictor())
        result = simulator.run()
        golden = Machine(program)
        golden.run()
        assert simulator.machine.halted
        assert simulator.machine.regs == golden.regs
        assert simulator.machine.memory == golden.memory
        assert (
            result.stats.committed_instructions == golden.instructions_retired
        )

    def test_committed_branch_stream_matches_trace(self):
        from repro.engine import trace_branches

        program = small_program(iterations=10)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        simulator.run()
        committed = [
            (record.pc, record.actual_taken)
            for record in simulator.branch_records
            if record.committed
        ]
        assert committed == list(trace_branches(program).trace)

    def test_non_speculative_predictor_also_equivalent(self):
        program = small_program(iterations=8)
        simulator = PipelineSimulator(program, SAgPredictor())
        result = simulator.run()
        golden = Machine(program)
        golden.run()
        assert result.stats.committed_instructions == golden.instructions_retired


class TestSpeculationBehaviour:
    def test_fetches_more_than_commits(self):
        program = small_program(iterations=40)
        result = PipelineSimulator(program, GsharePredictor()).run()
        stats = result.stats
        assert stats.fetched_instructions > stats.committed_instructions
        assert stats.fetch_to_commit_ratio_or_none() > 1.0
        assert stats.squashed_instructions > 0

    def test_wrong_path_branches_are_recorded(self):
        program = small_program(iterations=40)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        simulator.run()
        wrong_path = [r for r in simulator.branch_records if r.wrong_path]
        assert wrong_path
        assert all(not record.committed for record in wrong_path)

    def test_committed_records_resolved_in_order(self):
        program = small_program(iterations=20)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        simulator.run()
        committed = [record for record in simulator.branch_records if record.committed]
        cycles = [record.resolve_cycle for record in committed]
        assert cycles == sorted(cycles)
        assert all(
            record.resolve_cycle >= record.fetch_cycle for record in committed
        )

    def test_distance_counters_reset_on_mispredictions(self):
        program = small_program(iterations=40)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        simulator.run()
        records = simulator.branch_records
        # right after a mispredicted fetch, the next branch's precise
        # distance must be 0
        for earlier, later in zip(records, records[1:]):
            if earlier.mispredicted:
                assert later.precise_distance == 0

    def test_perceived_distance_lags_precise(self):
        """Detection happens at resolve: perceived resets later, so on
        average perceived distances right after a misprediction exceed
        precise ones."""
        program = small_program(iterations=60)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        simulator.run()
        records = [r for r in simulator.branch_records if r.mispredicted]
        mean_precise = sum(r.precise_distance for r in records) / len(records)
        mean_perceived = sum(r.perceived_distance for r in records) / len(records)
        assert mean_perceived >= mean_precise

    def test_mispredict_penalty_slows_completion(self):
        program = small_program(iterations=30)
        fast = PipelineSimulator(
            program, GsharePredictor(), config=PipelineConfig(mispredict_penalty=0)
        ).run()
        slow = PipelineSimulator(
            program, GsharePredictor(), config=PipelineConfig(mispredict_penalty=10)
        ).run()
        assert slow.stats.cycles > fast.stats.cycles

    def test_max_instructions_commits_exactly_n(self):
        # the commit stage caps its width to the remaining budget, so
        # the run never overshoots by up to commit_width-1
        program = small_program(iterations=200)
        result = PipelineSimulator(program, GsharePredictor()).run(
            max_instructions=2000
        )
        assert result.stats.committed_instructions == 2000

    @pytest.mark.parametrize("fast", (False, True))
    def test_max_instructions_exact_with_wide_commit(self, fast):
        # a budget that is not a multiple of commit_width forces a
        # partial final commit group in both engines
        program = small_program(iterations=200)
        config = PipelineConfig(commit_width=4)
        result = PipelineSimulator(
            program, GsharePredictor(), config=config, fast=fast
        ).run(max_instructions=1999)
        assert result.stats.committed_instructions == 1999

    def test_ipc_is_bounded_by_widths(self):
        program = small_program(iterations=30)
        config = PipelineConfig(fetch_width=2, commit_width=2)
        result = PipelineSimulator(program, GsharePredictor(), config=config).run()
        assert 0 < result.stats.ipc_or_none() <= 2.0


class TestResultSize:
    """A result holds aggregates only: the reference engine's
    per-branch records stay on the simulator, so what the harness
    memoises and caches per cell does not grow with the run."""

    def test_result_has_no_per_branch_field(self):
        simulator = PipelineSimulator(
            small_program(iterations=20), GsharePredictor(), fast=False
        )
        result = simulator.run()
        assert [field.name for field in dataclasses.fields(result)] == [
            "stats",
            "distances",
            "quadrants_committed",
            "quadrants_all",
        ]
        for name in ("records", "branch_records", "committed_records"):
            assert not hasattr(result, name)
        assert len(simulator.records) == result.stats.fetched_branches

    @pytest.mark.parametrize("max_instructions", (2_000, 8_000))
    def test_result_pickles_under_4kb(self, max_instructions):
        program = workload_program("compress", 60)
        simulator = PipelineSimulator(program, make_predictor("gshare"), fast=False)
        result = simulator.run(max_instructions=max_instructions)
        assert len(simulator.records) > max_instructions // 10
        assert len(pickle.dumps(result)) < 4096


class TestEstimatorsInPipeline:
    def test_quadrants_cover_committed_branches(self):
        program = small_program(iterations=30)
        predictor = GsharePredictor()
        simulator = PipelineSimulator(
            program,
            predictor,
            estimators={"jrs": JRSEstimator(threshold=15)},
        )
        result = simulator.run()
        quadrant = result.quadrants_committed["jrs"]
        assert quadrant.total == result.stats.committed_branches
        quadrant_all = result.quadrants_all["jrs"]
        assert quadrant_all.total == result.stats.fetched_branches

    def test_records_carry_assessments(self):
        program = small_program(iterations=20)
        predictor = GsharePredictor()
        simulator = PipelineSimulator(
            program,
            predictor,
            estimators={"dist": MispredictionDistanceEstimator(4)},
            fast=False,
        )
        simulator.run()
        assert all(
            "dist" in record.assessments for record in simulator.branch_records
        )

    def test_wrong_path_branches_counted_in_all_only(self):
        program = small_program(iterations=40)
        predictor = GsharePredictor()
        simulator = PipelineSimulator(
            program, predictor, estimators={"jrs": JRSEstimator(threshold=15)}
        )
        result = simulator.run()
        assert (
            result.quadrants_all["jrs"].total
            > result.quadrants_committed["jrs"].total
        )


class TestStepCycleApi:
    def test_manual_stepping_reaches_completion(self):
        program = small_program(iterations=5)
        simulator = PipelineSimulator(program, GsharePredictor(), fast=False)
        for __ in range(200_000):
            if simulator.done:
                break
            simulator.step_cycle()
        assert simulator.done


class TestConfigValidation:
    def test_bad_widths(self):
        with pytest.raises(ValueError):
            PipelineConfig(fetch_width=0)
        with pytest.raises(ValueError):
            PipelineConfig(window=2, fetch_width=4)

    def test_bad_latencies(self):
        with pytest.raises(ValueError):
            PipelineConfig(resolve_stage=0)
        with pytest.raises(ValueError):
            PipelineConfig(mispredict_penalty=-1)


@pytest.mark.parametrize("predictor_name", ("gshare", "mcfarling", "sag"))
def test_every_predictor_survives_a_pipeline_run(predictor_name):
    program = small_program(iterations=10)
    result = PipelineSimulator(program, make_predictor(predictor_name)).run()
    assert result.stats.committed_instructions > 0
