"""Ablation: speculative vs non-speculative global history update.

DESIGN.md §5(1).  The paper runs gshare/McFarling with speculative
history plus repair and notes that non-speculative update "will
slightly increase the branch misprediction rate".  In a trace-driven
run the two are provably identical (predict/resolve are adjacent); the
difference only exists under a pipeline with branches in flight, so
this ablation runs the pipeline.
"""

from conftest import BENCH_SCALE

from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor
from repro.engine import workload_program

WORKLOADS = ("gcc", "go", "perl", "xlisp")


def run_variant(speculative: bool):
    accuracies = {}
    for name in WORKLOADS:
        program = workload_program(name, BENCH_SCALE.iterations)
        predictor = GsharePredictor(speculative_history=speculative)
        result = PipelineSimulator(program, predictor).run(
            max_instructions=BENCH_SCALE.pipeline_instructions
        )
        accuracies[name] = result.stats.committed_accuracy_or_none()
    return accuracies


def test_ablation_speculative_history(benchmark, results_dir):
    speculative = benchmark.pedantic(
        lambda: run_variant(True), rounds=1, iterations=1
    )
    non_speculative = run_variant(False)

    lines = ["workload  speculative  non-speculative  delta"]
    wins = 0
    for name in WORKLOADS:
        delta = speculative[name] - non_speculative[name]
        lines.append(
            f"{name:9s} {speculative[name]:10.2%} {non_speculative[name]:14.2%}"
            f" {delta:+7.3%}"
        )
        if delta >= -0.003:  # speculative at least ties (small noise band)
            wins += 1
    (results_dir / "ablation_spec_history.txt").write_text("\n".join(lines) + "\n")
    # the paper's direction: speculative update should not lose; expect
    # it to at least tie on most workloads
    assert wins >= len(WORKLOADS) - 1
