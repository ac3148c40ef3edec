#!/usr/bin/env python3
"""Eager (dual-path) execution driven by confidence estimates (§2.2).

Forking both paths of a low-confidence branch makes its misprediction
(nearly) free, at the price of splitting fetch bandwidth while two
paths are live.  Whether a given estimator pays for itself is a pure
function of the paper's metrics:

* every covered misprediction (the SPEC side) earns the recovery
  penalty back;
* every false alarm (1 - PVN) pays the fork tax for nothing.

This example prices the same pipeline run's branch stream under
several estimators and boosting levels.
"""

from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
    SaturatingCountersEstimator,
)
from repro.engine import workload_program
from repro.harness.tables import pct1, spct1
from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor
from repro.speculation import evaluate_eager_execution


def main() -> None:
    program = workload_program("go")  # the misprediction-rich workload
    predictor = GsharePredictor()
    estimators = {
        "JRS >=15": JRSEstimator(threshold=15, enhanced=True),
        "JRS >=8": JRSEstimator(threshold=8, enhanced=True),
        "satcnt": SaturatingCountersEstimator.for_predictor(predictor),
        "distance >4": MispredictionDistanceEstimator(4),
        "boost2(satcnt)": BoostedEstimator(
            SaturatingCountersEstimator.for_predictor(predictor), k=2
        ),
    }
    simulator = PipelineSimulator(program, predictor, estimators=estimators)
    records = simulator.run(max_instructions=80_000).branch_records
    committed_mispredictions = sum(
        1 for record in records if record.committed and record.mispredicted
    )
    print(
        f"workload go: {committed_mispredictions:,} committed mispredictions"
        f" in {simulator.stats.committed_branches:,} branches\n"
    )
    print(
        f"{'estimator':16s} {'forks':>7s} {'coverage':>9s} {'precision':>10s}"
        f" {'saved':>8s} {'spent':>8s} {'net cycles':>11s}"
    )
    for name in estimators:
        outcome = evaluate_eager_execution(records, name)
        print(
            f"{name:16s} {outcome.forks:7,d} {pct1(outcome.coverage):>9s}"
            f" {pct1(outcome.fork_precision):>10s} {outcome.cycles_saved:8.0f}"
            f" {outcome.cycles_spent:8.0f} {outcome.net_cycles:11.0f}"
        )
    print(
        "\ncoverage is the estimator's SPEC, precision its PVN --"
        " the paper's point that eager execution wants both high."
    )


def dual_path_pipeline() -> None:
    """The real mechanism: a selective dual-path front end."""
    from repro.speculation import compare_eager_execution

    print("\nfull dual-path pipeline (fork on LC, per-path history):")
    print(f"{'estimator':14s} {'speedup':>8s} {'forks':>7s} {'precision':>10s} {'coverage':>9s}")
    program = workload_program("go")
    # one single-path baseline serves all four estimators
    baseline = PipelineSimulator(program, GsharePredictor()).run(
        max_instructions=60_000
    )
    for name, factory in (
        ("satcnt", lambda p: SaturatingCountersEstimator.for_predictor(p)),
        ("JRS >=15", lambda p: JRSEstimator(threshold=15, enhanced=True)),
        ("always fork", lambda p: JRSEstimator(threshold=16)),
        ("never fork", lambda p: JRSEstimator(threshold=0)),
    ):
        comparison = compare_eager_execution(
            program, GsharePredictor, factory, max_instructions=60_000, baseline=baseline
        )
        print(
            f"{name:14s} {spct1(comparison.speedup):>8s} {comparison.forks:7,d}"
            f" {pct1(comparison.fork_precision):>10s} {pct1(comparison.coverage):>9s}"
        )
    print(
        "selectivity earns the cycles: the estimator beats blind forking,"
        "\nand never-fork is the single-path baseline by construction."
    )


if __name__ == "__main__":
    main()
    dual_path_pipeline()
