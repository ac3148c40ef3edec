"""Application bench: pipeline gating, a speculation-control use of §2.2.

Not a paper table, but the paper's stated motivation; this bench pins
down that the estimators actually pay off when plugged into the
mechanism the paper targets for power.  Eager execution is benched on
the dual-path pipeline in ``test_app_dualpath.py``.
"""

from conftest import BENCH_SCALE

from repro.confidence import JRSEstimator
from repro.engine import workload_program
from repro.predictors import GsharePredictor
from repro.speculation import compare_gating


def jrs_factory(predictor):
    return JRSEstimator(threshold=15, enhanced=True)


def test_app_pipeline_gating(benchmark, results_dir):
    def run():
        rows = {}
        for name in ("gcc", "go"):
            rows[name] = compare_gating(
                workload_program(name, BENCH_SCALE.iterations),
                GsharePredictor,
                jrs_factory,
                gate_threshold=2,
                max_instructions=BENCH_SCALE.pipeline_instructions,
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["workload  extra-work-cut  slowdown"]
    for name, comparison in rows.items():
        lines.append(
            f"{name:9s} {comparison.extra_work_reduction:13.1%}"
            f" {comparison.slowdown:9.2%}"
        )
        # the power-conservation bargain: a solid cut in squashed work
        # for a small performance loss (gate threshold 2, as in the
        # companion pipeline-gating paper)
        assert comparison.extra_work_reduction > 0.15, name
        assert comparison.slowdown < 0.20, name
    (results_dir / "app_gating.txt").write_text("\n".join(lines) + "\n")

