"""Tests for the speculation-control applications."""

import pytest

from repro.confidence import JRSEstimator
from repro.pipeline import PipelineConfig, PipelineSimulator
from repro.pipeline.core import _count_low_confidence_inflight
from repro.predictors import GsharePredictor
from repro.speculation import GatedPipelineSimulator, compare_gating
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
            fast=False,
        )
        for __ in range(15):
            simulator.step_cycle()
        inflight_branches = sum(1 for e in simulator._inflight if e.is_branch)
        assert (
            _count_low_confidence_inflight(simulator, "jrs") == inflight_branches
        )
