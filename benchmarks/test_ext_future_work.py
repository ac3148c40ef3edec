"""Extension bench: the paper's §5 McFarling-structure-aware JRS.

"a confidence estimator similar to the JRS mechanism designed to better
exploit the structure of the McFarling two-level branch predictor"
(:class:`~repro.confidence.jrs.CombiningJRSEstimator`).
"""

from conftest import BENCH_SCALE

from repro.confidence import CombiningJRSEstimator, JRSEstimator
from repro.engine import measure, workload_run
from repro.metrics import average_quadrants
from repro.predictors import make_predictor

WORKLOADS = ("compress", "gcc", "go", "perl", "xlisp", "vortex", "m88ksim", "jpeg")


def measure_suite(predictor_name, estimator_factories):
    quadrants = {name: [] for name in estimator_factories}
    for workload in WORKLOADS:
        trace = workload_run(workload, BENCH_SCALE.iterations).trace
        predictor = make_predictor(predictor_name)
        estimators = {
            name: factory(predictor)
            for name, factory in estimator_factories.items()
        }
        result = measure(trace, predictor, estimators)
        for name in estimator_factories:
            quadrants[name].append(result.quadrants[name])
    return {name: average_quadrants(qs) for name, qs in quadrants.items()}


def test_ext_combining_jrs(benchmark, results_dir):
    averages = benchmark.pedantic(
        lambda: measure_suite(
            "mcfarling",
            {
                "jrs": lambda p: JRSEstimator(threshold=15, enhanced=True),
                "jrs-mcf": lambda p: CombiningJRSEstimator(threshold=15),
                "jrs-mcf-both": lambda p: CombiningJRSEstimator(
                    threshold=15, selection="both"
                ),
            },
        ),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'estimator':14s} {'sens':>6s} {'spec':>6s} {'pvp':>7s} {'pvn':>6s}"]
    for name, quadrant in averages.items():
        lines.append(
            f"{name:14s} {quadrant.sens:6.1%} {quadrant.spec:6.1%}"
            f" {quadrant.pvp:7.2%} {quadrant.pvn:6.1%}"
        )
    (results_dir / "ext_future_work_estimators.txt").write_text(
        "\n".join(lines) + "\n"
    )

    jrs = averages["jrs"]
    combining = averages["jrs-mcf"]
    # the §5 design goal: exploiting both index structures of the
    # combining predictor recovers SENS and PVN over a gshare-shaped JRS
    assert combining.sens > jrs.sens
    assert combining.pvn > jrs.pvn
    assert combining.pvp > jrs.pvp - 0.02
    # the conservative variant buys back SPEC/PVP instead
    assert averages["jrs-mcf-both"].spec > combining.spec

