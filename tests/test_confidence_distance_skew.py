"""Pipeline-vs-trace skew of the misprediction-distance estimator.

The docstring of :class:`repro.confidence.distance.MispredictionDistanceEstimator`
claims two timing behaviours the paper's Figs 8/9 rest on:

* in the **trace engine** resolution follows prediction immediately, so
  the estimator's counter degenerates to the *precise* distance;
* in the **pipeline engine** the counter advances at fetch (wrong-path
  branches included) and resets only when a misprediction *resolves*,
  so it tracks the *perceived* distance -- which is skewed against the
  precise distance by the resolve latency.

Neither claim was asserted anywhere; these tests pin both down.
"""

import pytest

from repro.confidence import MispredictionDistanceEstimator
from repro.engine import measure, workload_program, workload_run
from repro.pipeline import PipelineConfig, PipelineSimulator
from repro.predictors import GsharePredictor

THRESHOLD = 4

#: Deep resolve stage so perceived and precise distance visibly diverge.
SKEW_CONFIG = PipelineConfig(resolve_stage=8)


def _pipeline_records(workload="compress", iterations=40, config=SKEW_CONFIG):
    program = workload_program(workload, iterations)
    simulator = PipelineSimulator(
        program,
        GsharePredictor(),
        config=config,
        estimators={"dist": MispredictionDistanceEstimator(THRESHOLD)},
        fast=False,  # the reference engine logs every fetched branch
    )
    simulator.run(max_instructions=6000)
    return simulator.branch_records


class TestTraceEngineIsPrecise:
    """Trace-driven measurement: the counter is the precise distance."""

    def test_flags_match_precise_distance_replay(self):
        trace = workload_run("compress", 40).trace
        flags_seen = []
        measure(
            trace,
            GsharePredictor(),
            {"dist": MispredictionDistanceEstimator(THRESHOLD)},
            observers=[
                lambda pc, predicted, actual, flags: flags_seen.append(
                    flags["dist"]
                )
            ],
        )
        # replay the precise rule: distance counts branches since the
        # last misprediction, reset as soon as the branch resolves
        replay_predictor = GsharePredictor()
        distance = 0
        expected = []
        for pc, taken in trace:
            prediction = replay_predictor.predict(pc)
            expected.append(distance > THRESHOLD)
            distance = 0 if prediction.taken != taken else distance + 1
            replay_predictor.resolve(pc, taken, prediction)
        assert flags_seen == expected


class TestPipelineEngineIsPerceived:
    """Pipeline measurement: the counter is the perceived distance."""

    def test_flags_match_perceived_distance_exactly(self):
        records = _pipeline_records()
        assert records, "pipeline run produced no branch records"
        for record in records:
            assert record.assessments["dist"] == (
                record.perceived_distance > THRESHOLD
            ), (
                f"branch #{record.sequence}: flag"
                f" {record.assessments['dist']} but perceived distance"
                f" {record.perceived_distance}"
            )

    def test_skew_exists_between_perceived_and_precise(self):
        """With a deep resolve stage the two distances must diverge --
        this is the entire Figs 8 vs 6 story."""
        records = _pipeline_records()
        skewed = [
            r for r in records if r.perceived_distance != r.precise_distance
        ]
        assert skewed, "no perceived/precise skew despite resolve latency"

    def test_estimator_disagrees_with_precise_rule_under_skew(self):
        """The observable consequence of the skew: on some branches the
        hardware estimator (perceived) and an oracle using the precise
        distance reach opposite confidence verdicts."""
        records = _pipeline_records()
        disagreements = [
            record
            for record in records
            if record.assessments["dist"]
            != (record.precise_distance > THRESHOLD)
        ]
        assert disagreements, (
            "perceived-distance estimator never disagreed with the"
            " precise-distance oracle"
        )

    def test_shallow_resolve_reduces_skew(self):
        """The skew is caused by resolve latency: resolving earlier
        strictly shrinks the skewed population."""
        deep = _pipeline_records(config=PipelineConfig(resolve_stage=8))
        shallow = _pipeline_records(config=PipelineConfig(resolve_stage=2))

        def skew_fraction(records):
            skewed = sum(
                1 for r in records if r.perceived_distance != r.precise_distance
            )
            return skewed / len(records)

        assert skew_fraction(shallow) < skew_fraction(deep)

    def test_wrong_path_branches_advance_the_counter(self):
        """Fetch-time accounting includes wrong-path branches: the
        perceived distance keeps growing down the wrong path, which a
        precise (commit-time) account would never see."""
        records = _pipeline_records()
        wrong_path = [r for r in records if r.wrong_path]
        assert wrong_path, "expected wrong-path branch records"
        assert any(r.perceived_distance > 0 for r in wrong_path)


class TestThresholdSemantics:
    def test_threshold_boundary_is_strict(self):
        """HC requires distance strictly greater than the threshold."""
        records = _pipeline_records()
        at_threshold = [
            r for r in records if r.perceived_distance == THRESHOLD
        ]
        if not at_threshold:
            pytest.skip("no branch landed exactly on the threshold")
        assert all(not r.assessments["dist"] for r in at_threshold)
