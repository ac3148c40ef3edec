"""Ablation: the paper's quadrant averaging vs naive metric averaging.

DESIGN.md §5(4).  The paper insists on averaging the quadrant
frequencies and then taking ratios.  This bench quantifies how much the
two disciplines disagree on the actual Table 2 data -- the reason the
paper spells its method out.
"""

from conftest import BENCH_SCALE

from repro.harness import run_experiment
from repro.harness.experiments import _table2_measurements
from repro.metrics import average_quadrants, metric_means


def test_ablation_averaging_method(benchmark, results_dir):
    benchmark.pedantic(
        lambda: run_experiment("tab2", BENCH_SCALE), rounds=1, iterations=1
    )
    lines = ["predictor  estimator  metric     paper-style  naive-mean  |delta|"]
    max_delta = 0.0
    for predictor in ("gshare", "mcfarling", "sag"):
        per_workload, __ = _table2_measurements(
            predictor, BENCH_SCALE.iterations, BENCH_SCALE.workloads
        )
        for estimator in ("jrs", "satcnt", "pattern", "static"):
            quadrants = [per_workload[w][estimator] for w in BENCH_SCALE.workloads]
            paper_style = average_quadrants(quadrants)
            naive = metric_means(quadrants)
            for metric in ("sens", "spec", "pvp", "pvn"):
                a = getattr(paper_style, metric)
                b = naive[metric]
                delta = abs(a - b)
                max_delta = max(max_delta, delta)
                lines.append(
                    f"{predictor:10s} {estimator:9s} {metric:9s}"
                    f" {a:11.2%} {b:10.2%} {delta:7.3%}"
                )
    (results_dir / "ablation_averaging.txt").write_text("\n".join(lines) + "\n")
    # the disciplines genuinely disagree somewhere (else the paper's
    # methodological point would be moot) ...
    assert max_delta > 0.005
    # ... but not so wildly that either is broken
    assert max_delta < 0.25
