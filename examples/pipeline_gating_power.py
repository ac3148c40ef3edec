#!/usr/bin/env python3
"""Speculation control for power: pipeline gating (paper §2.2, ref [11]).

Stops fetching whenever more than N unresolved low-confidence branches
are in flight.  Squashed (wrong-path) instructions burn energy without
ever helping performance; a confidence estimator with a good SPEC
catches most of the wrong-path episodes, so gating trades a small
slowdown for a large cut in wasted work.

The sweep below shows the knob: gate threshold 1 is aggressive (big
power win, visible slowdown), threshold 3 is nearly free but saves
little -- the trade-off the companion pipeline-gating paper explores.
"""

from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.engine import workload_program
from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor
from repro.speculation import compare_gating

WORKLOADS = ("gcc", "go", "compress")
BUDGET = 60_000  # committed instructions per run


def main() -> None:
    print("pipeline gating: cut in squashed work vs slowdown")
    print("(gshare predictor, enhanced JRS estimator, threshold >= 15)\n")
    header = f"{'workload':10s} {'gate':>5s} {'baseline waste':>15s} {'work cut':>9s} {'slowdown':>9s} {'gated cycles':>13s}"
    print(header)
    # no estimator steers the ungated run, so one baseline per workload
    # serves the whole threshold sweep and the estimator pair below
    baselines = {}
    for workload in WORKLOADS:
        program = workload_program(workload)
        baselines[workload] = PipelineSimulator(program, GsharePredictor()).run(
            max_instructions=BUDGET
        )
        for gate_threshold in (1, 2, 3):
            comparison = compare_gating(
                program,
                GsharePredictor,
                lambda p: JRSEstimator(threshold=15, enhanced=True),
                gate_threshold=gate_threshold,
                max_instructions=BUDGET,
                baseline=baselines[workload],
            )
            print(
                f"{workload:10s} {'>' + str(gate_threshold):>5s}"
                f" {comparison.baseline_extra_work:15.1%}"
                f" {comparison.extra_work_reduction:9.1%}"
                f" {comparison.slowdown:9.2%}"
                f" {comparison.gated_cycles:13,d}"
            )
        print()

    print("estimator choice matters: gcc, gate > 2, JRS vs saturating counters")
    for label, factory in (
        ("JRS", lambda p: JRSEstimator(threshold=15, enhanced=True)),
        ("satcnt", lambda p: SaturatingCountersEstimator.for_predictor(p)),
    ):
        comparison = compare_gating(
            workload_program("gcc"),
            GsharePredictor,
            factory,
            gate_threshold=2,
            max_instructions=BUDGET,
            baseline=baselines["gcc"],
        )
        print(
            f"  {label:7s} work cut {comparison.extra_work_reduction:6.1%},"
            f" slowdown {comparison.slowdown:6.2%}"
        )


if __name__ == "__main__":
    main()
