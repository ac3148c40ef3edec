"""Application bench: selective dual-path execution end to end.

The full-pipeline version of the §2.2 eager-execution application:
forks really change the front end's behaviour (bandwidth dilution,
flush-free mispredictions), so the estimator-quality ranking the paper
predicts from PVN/SPEC shows up directly as cycle counts.
"""

from conftest import BENCH_SCALE

from repro.confidence import (
    JRSEstimator,
    MispredictionDistanceEstimator,
    SaturatingCountersEstimator,
)
from repro.engine import workload_program
from repro.harness.tables import pct1, spct1
from repro.predictors import GsharePredictor
from repro.speculation import compare_eager_execution

CONFIGS = {
    "satcnt": lambda p: SaturatingCountersEstimator.for_predictor(p),
    "jrs>=15": lambda p: JRSEstimator(threshold=15, enhanced=True),
    "distance>4": lambda p: MispredictionDistanceEstimator(4),
    "always-LC": lambda p: JRSEstimator(threshold=16),  # fork on everything
    "always-HC": lambda p: JRSEstimator(threshold=0),  # never fork
}


def run_matrix():
    out = {}
    for workload in ("go", "gcc", "vortex"):
        prog = workload_program(workload, BENCH_SCALE.iterations)
        for name, factory in CONFIGS.items():
            out[(workload, name)] = compare_eager_execution(
                prog,
                GsharePredictor,
                factory,
                max_instructions=BENCH_SCALE.pipeline_instructions,
            )
    return out


def test_app_dualpath_execution(benchmark, results_dir):
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    lines = [
        f"{'workload':9s} {'estimator':12s} {'speedup':>8s} {'forks':>7s}"
        f" {'precision':>10s} {'coverage':>9s}"
    ]
    for (workload, name), comparison in matrix.items():
        lines.append(
            f"{workload:9s} {name:12s} {spct1(comparison.speedup):>8s}"
            f" {comparison.forks:7,d} {pct1(comparison.fork_precision):>10s}"
            f" {pct1(comparison.coverage):>9s}"
        )
    (results_dir / "app_dualpath.txt").write_text("\n".join(lines) + "\n")

    for workload in ("go", "gcc"):
        # forking on a decent estimator wins on misprediction-heavy code
        assert matrix[(workload, "satcnt")].speedup > 0.02, workload
        assert matrix[(workload, "jrs>=15")].speedup > 0.0, workload
        # never-fork is the exact baseline
        assert abs(matrix[(workload, "always-HC")].speedup) < 0.02, workload
        # the estimator beats indiscriminate forking: selectivity (the
        # PVN) is what earns the speedup beyond blind dual-path
        assert (
            matrix[(workload, "satcnt")].speedup
            > matrix[(workload, "always-LC")].speedup
        ), workload
    # on a highly predictable workload there is little to win
    assert matrix[("vortex", "satcnt")].speedup < matrix[("go", "satcnt")].speedup
