#!/usr/bin/env python3
"""Eager (dual-path) execution driven by confidence estimates (§2.2).

Forking both paths of a low-confidence branch makes its misprediction
(nearly) free, at the price of splitting fetch bandwidth while two
paths are live.  Whether a given estimator pays for itself is a
function of the paper's metrics:

* every covered misprediction (the SPEC side) earns the recovery
  penalty back;
* every false alarm (1 - PVN) pays the fork tax for nothing.

This example runs the selective dual-path pipeline on go under
several estimators and compares each against one single-path run.
"""

from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.engine import workload_program
from repro.harness.tables import pct1, spct1
from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor
from repro.speculation import compare_eager_execution


def dual_path_pipeline() -> None:
    """The real mechanism: a selective dual-path front end."""
    print("full dual-path pipeline (fork on LC, per-path history):")
    print(f"{'estimator':14s} {'speedup':>8s} {'forks':>7s} {'precision':>10s} {'coverage':>9s}")
    program = workload_program("go")  # the misprediction-rich workload
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
        "\nprecision is the estimator's PVN and coverage its SPEC --"
        "\nthe paper's point that eager execution wants both high."
    )


if __name__ == "__main__":
    dual_path_pipeline()
