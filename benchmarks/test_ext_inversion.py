"""Extension bench: the §2.2 inversion negative result, measured.

"If the PVN > 50%, then the confidence estimator can improve the
branch prediction accuracy by inverting the outcome of a low-confident
branch ... We have examined many confidence estimators in many
configurations, but have not found a situation where these conditions
hold across a range of programs."  This bench sweeps estimators x
predictors x workloads and checks the negative result survives the
reproduction -- including for *boosted* low-confidence signals, whose
per-branch PVN stays below break-even even when the composed event's
PVN exceeds 50% (boosting describes the pipeline, not one branch).
"""

from conftest import BENCH_SCALE

from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
    SaturatingCountersEstimator,
)
from repro.engine import workload_run
from repro.predictors import make_predictor
from repro.speculation import evaluate_inversion

WORKLOADS = ("compress", "gcc", "go", "perl", "xlisp", "vortex", "m88ksim", "jpeg")

CONFIGS = {
    "jrs>=15": lambda p: JRSEstimator(threshold=15, enhanced=True),
    "jrs>=8": lambda p: JRSEstimator(threshold=8, enhanced=True),
    "satcnt": lambda p: SaturatingCountersEstimator.for_predictor(p),
    "distance>4": lambda p: MispredictionDistanceEstimator(4),
    "boost3(satcnt)": lambda p: BoostedEstimator(
        SaturatingCountersEstimator.for_predictor(p), k=3
    ),
}


def run_sweep():
    totals = {}
    for predictor_name in ("gshare", "mcfarling"):
        for workload in WORKLOADS:
            trace = workload_run(workload, BENCH_SCALE.iterations).trace
            predictor = make_predictor(predictor_name)
            # one pass per predictor x workload measures every config
            results = evaluate_inversion(
                trace,
                predictor,
                {name: factory(predictor) for name, factory in CONFIGS.items()},
            )
            for config_name, result in results.items():
                row = totals.setdefault((predictor_name, config_name), [0, 0, 0, 0])
                row[0] += result.flips_helped
                row[1] += result.flips_hurt
                row[2] += result.branches
                row[3] += result.accuracy_delta > 0
    return [
        (predictor_name, config_name, helped, hurt, branches, wins)
        for (predictor_name, config_name), (helped, hurt, branches, wins) in totals.items()
    ]


def test_ext_inversion_negative_result(benchmark, results_dir):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [
        f"{'predictor':10s} {'estimator':16s} {'flip pvn':>9s}"
        f" {'accuracy delta':>15s} {'winning workloads':>18s}"
    ]
    for predictor_name, config_name, helped, hurt, branches, wins in rows:
        flips = helped + hurt
        # an estimator that flags nothing has no flip PVN to compare
        assert flips > 0, (predictor_name, config_name)
        flip_pvn = helped / flips
        delta = (helped - hurt) / branches
        lines.append(
            f"{predictor_name:10s} {config_name:16s} {flip_pvn:9.1%}"
            f" {delta:+15.2%} {wins:15d}/8"
        )
        # the paper's negative result: flipping LC branches never pays
        # across the suite -- every flipped population sits below the
        # 50% PVN break-even and the aggregate delta is negative
        assert flip_pvn < 0.5, (predictor_name, config_name)
        assert delta < 0, (predictor_name, config_name)
        assert wins <= 1, (predictor_name, config_name)
    (results_dir / "ext_inversion.txt").write_text("\n".join(lines) + "\n")
