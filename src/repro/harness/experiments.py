"""One experiment per table/figure of the paper.

Every experiment is a plain function ``(scale) -> ExperimentResult``
registered declaratively as an :class:`repro.harness.spec.ExperimentSpec`
in the central :data:`repro.harness.spec.SPECS` registry, which carries
its report section/order and its declared dependencies on shared
artifacts.

Heavy intermediate products (workload traces, pipeline results,
per-workload estimator-bank measurements) are memoised per scale in
process *and* persisted in the content-addressed artifact cache
(:mod:`repro.engine.cache`), so the whole battery costs each
simulation once per machine -- warm reruns, pytest sessions and
parallel workers (:mod:`repro.harness.parallel`) all share them.  An
estimator-bank cell (:func:`measurement_cell`) holds exactly the
estimator families one experiment reads off one (workload, predictor)
pair, so its key does not depend on what else was selected; the cells
of one pair still share that pair's predictor scan, which the vector
engine memoises on the columnar trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import settings
from ..analysis.clustering import measure_boosting, misestimation_distance
from ..analysis.distance import (
    DistanceBucket,
    DistanceCurve,
    perceived_distance_curve,
    precise_distance_curve,
)
from ..analysis.sweeps import (
    SweepLine,
    average_sweep_lines,
    distance_value_histogram,
    jrs_value_histogram,
)
from ..confidence import (
    BoostedEstimator,
    JRSEstimator,
    McFarlingVariant,
    MispredictionDistanceEstimator,
    PatternHistoryEstimator,
    SaturatingCountersEstimator,
    StaticEstimator,
    boosted_pvn,
    profile_confident_sites,
)
from ..engine import (
    MeasurementResult,
    columnar_run,
    confident_sites_vector,
    get_cache,
    measure_bank,
    profile_fingerprint,
    record_pipeline_simulation,
    workload_run,
)
from ..metrics import QuadrantCounts, average_quadrants, figure1_family
from ..pipeline import DEPTH_HISTOGRAM_KEY, PipelineConfig, clear_decoded_cache
from ..predictors import make_predictor
from ..workloads import SUITE
from . import paper_values
from .spec import PIPELINE_SCHEMA, SPECS, ArtifactDep, ExperimentSpec
from .tables import TextTable, pct, pct1

#: Predictors compared throughout the paper's evaluation.
PREDICTORS = ("gshare", "mcfarling", "sag")

#: Estimator display order for Table 2-style output.
ESTIMATOR_ORDER = ("jrs", "satcnt", "pattern", "static")

ESTIMATOR_LABELS = {
    "jrs": "JRS, Threshold >= 15",
    "satcnt": "Saturating Counters",
    "pattern": "History Pattern",
    "static": "Static, Threshold > 90%",
}

#: Estimator families the measurement bank can co-evaluate in one trace
#: pass, in canonical bank order.  ``accuracy`` is the estimator-free
#: family (predictor accuracy only); the rest map 1:1 onto estimator
#: configurations from the paper.
BANK_FAMILIES = (
    "accuracy",
    "jrs",
    "satcnt",
    "satcnt-either",
    "pattern",
    "static",
    "distance",
    "boosted-distance",
)

#: The Table 2 quartet (display order doubles as the family subset).
STANDARD_FAMILIES = ESTIMATOR_ORDER


@dataclass(frozen=True)
class Scale:
    """Experiment sizing: how much simulation to run.

    ``iterations=None`` uses each profile's calibrated default (the
    "full" runs reported in EXPERIMENTS.md); tests use small scales.
    """

    iterations: Optional[int] = None
    pipeline_instructions: int = 750_000
    workloads: Tuple[str, ...] = SUITE
    #: Soft segment size for pipeline cells (``None``/0 = whole runs).
    #: Segmented cells checkpoint a ``pipeline-segment`` snapshot at
    #: every boundary, making long runs shardable and resumable
    #: mid-cell; the final results are byte-identical either way.
    segment_instructions: Optional[int] = None
    #: Pipeline backend every cycle-level cell runs on (``inorder``
    #: is the paper-validated 5-stage core; ``ooo`` the R10K-style
    #: out-of-order core).  A spec-level dimension like predictor
    #: choice: it flows into artifact cache keys, warm task arguments
    #: and checkpoint fingerprints.
    backend: str = "inorder"


# the pre-decoded pipeline fast path (~5x branches/s) pays for 5x
# deeper cycle-level runs at the same wall clock as the old presets
FULL = Scale()
QUICK = Scale(iterations=120, pipeline_instructions=100_000)
#: Tiny battery for CI smoke runs and parallel-equivalence tests.
SMOKE = Scale(
    iterations=60,
    pipeline_instructions=8_000,
    workloads=("compress", "vortex"),
)
#: Paper-size pipeline budgets (~20x full), practical only because
#: segmented cells checkpoint and shard across processes.
PAPER = Scale(
    iterations=None,
    pipeline_instructions=15_000_000,
    segment_instructions=750_000,
)

#: Named scale presets the CLI exposes as ``--scale``.
SCALES: Dict[str, Scale] = {
    "smoke": SMOKE,
    "quick": QUICK,
    "full": FULL,
    "paper": PAPER,
}


@dataclass
class ExperimentResult:
    """Output of one experiment: tables for humans, data for tests."""

    experiment_id: str
    title: str
    tables: List[TextTable] = field(default_factory=list)
    data: Dict = field(default_factory=dict)
    #: Wall time the experiment took (stamped by the runner/scheduler);
    #: deliberately excluded from to_text/to_json so tables stay
    #: byte-identical across serial, parallel and cached runs.
    duration_s: Optional[float] = None

    def to_text(self) -> str:
        parts = [f"## {self.experiment_id}: {self.title}"]
        parts.extend(table.to_text() for table in self.tables)
        return "\n\n".join(parts)

    def to_json(self) -> str:
        """Machine-readable dump of the rendered tables (the structured
        ``data`` field holds arbitrary objects and is not serialised)."""
        import json

        return json.dumps(
            {
                "experiment": self.experiment_id,
                "title": self.title,
                "tables": [
                    {
                        "title": table.title,
                        "headers": table.headers,
                        "rows": table.rows,
                        "notes": table.notes,
                    }
                    for table in self.tables
                ],
            },
            indent=2,
        )


# ----------------------------------------------------------------------
# shared memoised products (in-process lru over the persistent cache)
# ----------------------------------------------------------------------


def _bank_trace(workload: str, iterations: Optional[int]):
    """The trace representation measurement passes should replay.

    Columnar (vector-engine) when enabled, the plain branch stream
    otherwise -- both replay identically through the scalar loop, so
    callers never need to care which they got.  This is the only place
    the ``REPRO_VECTOR`` setting is consulted: every engine entry point
    below dispatches on the representation it is handed.
    """
    if settings.current().vector:
        return columnar_run(workload, iterations)
    return workload_run(workload, iterations).trace


def _compute_static_sites(
    workload: str, predictor_name: str, iterations: Optional[int]
) -> frozenset:
    trace = _bank_trace(workload, iterations)
    sites = confident_sites_vector(trace, make_predictor(predictor_name), 0.90)
    if sites is not None:
        return sites
    return frozenset(
        profile_confident_sites(trace, make_predictor(predictor_name), 0.90)
    )


def _compute_pipeline_result(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int],
    backend: str,
):
    # simulator construction and the (optionally segmented) run both
    # live in repro.harness.shard so segment chains start from state
    # identical to a whole-cell run
    from .shard import run_segmented

    started = time.perf_counter()
    result = run_segmented(
        workload,
        predictor_name,
        iterations,
        max_instructions,
        segment_instructions,
        backend,
    )
    record_pipeline_simulation(
        result.stats.fetched_branches, time.perf_counter() - started
    )
    return result


@lru_cache(maxsize=64)
def _pipeline_result(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int] = None,
    backend: str = "inorder",
):
    # the segment size is deliberately NOT part of the final artifact's
    # key: segmentation cannot change the result (equivalence-tested),
    # so whole and segmented runs share one ``pipeline`` artifact; the
    # backend IS part of the key -- it changes every cycle-level number
    return get_cache().cached(
        "pipeline",
        lambda: _compute_pipeline_result(
            workload,
            predictor_name,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ),
        workload=workload,
        predictor=predictor_name,
        iterations=iterations,
        max_instructions=max_instructions,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
        schema=PIPELINE_SCHEMA,
    )


# ----------------------------------------------------------------------
# the estimator bank: one trace pass per (workload, predictor, families) cell
# ----------------------------------------------------------------------


def _family_estimator(
    family: str,
    predictor_name: str,
    predictor,
    workload: str,
    iterations: Optional[int],
):
    """A fresh estimator instance for one bank family.

    This is the one definition of each estimator configuration: the
    bank, ``boost`` and the speculation battery's
    ``SPECULATION_ESTIMATORS`` all build theirs here.  Only ``static``
    reads ``workload`` and ``iterations`` (its profiled sites).
    """
    if family == "jrs":
        return JRSEstimator(threshold=15, enhanced=True)
    if family == "satcnt":
        return SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.BOTH_STRONG
        )
    if family == "satcnt-either":
        return SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.EITHER_STRONG
        )
    if family == "pattern":
        return PatternHistoryEstimator.for_predictor(predictor)
    if family == "static":
        return StaticEstimator(
            _compute_static_sites(workload, predictor_name, iterations), 0.90
        )
    if family == "distance":
        return MispredictionDistanceEstimator(4)
    if family == "boosted-distance":
        return BoostedEstimator(MispredictionDistanceEstimator(4), k=2)
    raise KeyError(
        f"unknown estimator family {family!r};"
        f" available: {', '.join(BANK_FAMILIES)}"
    )


def _compute_measurement_cell(
    predictor_name: str,
    workload: str,
    iterations: Optional[int],
    families: Tuple[str, ...],
) -> MeasurementResult:
    predictor = make_predictor(predictor_name)
    estimators = {
        family: _family_estimator(
            family, predictor_name, predictor, workload, iterations
        )
        for family in BANK_FAMILIES
        if family in families and family != "accuracy"
    }
    return measure_bank(_bank_trace(workload, iterations), predictor, estimators)


#: Layout of the cached :class:`MeasurementResult`, a key part of every
#: ``measurement`` artifact: an entry of another layout is a plain miss.
MEASUREMENT_SCHEMA = "measurement-result/2"


@lru_cache(maxsize=512)
def measurement_cell(
    predictor_name: str,
    workload: str,
    iterations: Optional[int],
    families: Tuple[str, ...],
) -> MeasurementResult:
    """The estimator-bank measurement of one (predictor, workload) pair:
    one quadrant table per family except ``accuracy``, the
    estimator-free family (the result's ``accuracy`` serves it).

    This is the unit the ``measurement`` artifacts map to and the
    parallel warm waves fan out over; memoised in process and persisted
    in the artifact cache keyed by the exact family set.
    """
    families = tuple(families)
    return get_cache().cached(
        "measurement",
        lambda: _compute_measurement_cell(
            predictor_name, workload, iterations, families
        ),
        predictor=predictor_name,
        workload=workload,
        iterations=iterations,
        families=list(families),
        profile=profile_fingerprint(workload),
        schema=MEASUREMENT_SCHEMA,
    )


def _measurement(
    predictor_name: str,
    workload: str,
    iterations: Optional[int],
    need: Sequence[str],
) -> MeasurementResult:
    return measurement_cell(
        predictor_name, workload, iterations, tuple(sorted(set(need)))
    )


def table2_workload(
    predictor_name: str, workload: str, iterations: Optional[int]
) -> Tuple[Dict[str, QuadrantCounts], Optional[float]]:
    """Standard-estimator quadrants + accuracy for one (predictor,
    workload) cell, served from the estimator bank."""
    cell = _measurement(predictor_name, workload, iterations, STANDARD_FAMILIES)
    quadrants = {name: cell.quadrants[name] for name in ESTIMATOR_ORDER}
    return quadrants, cell.accuracy


def _table2_measurements(
    predictor_name: str, iterations: Optional[int], workloads: Tuple[str, ...]
):
    """Per-workload quadrant tables for the four standard estimators."""
    per_workload: Dict[str, Dict[str, QuadrantCounts]] = {}
    accuracies: Dict[str, Optional[float]] = {}
    for workload in workloads:
        quadrants, accuracy = table2_workload(predictor_name, workload, iterations)
        per_workload[workload] = quadrants
        accuracies[workload] = accuracy
    return per_workload, accuracies


def _metric_cells(quadrant: QuadrantCounts) -> List[str]:
    """SENS, SPEC, PVP and PVN as table cells (``n/a`` if undefined)."""
    return [pct(value) for value in (quadrant.sens, quadrant.spec, quadrant.pvp, quadrant.pvn)]


def clear_memoised() -> None:
    """Drop the in-process memo tier (the disk tier is untouched).

    Tests use this to force the next access through the artifact
    cache; it bounds memory in long-lived processes too.
    """
    from ..engine import clear_columnar_cache
    from .speculation import clear_speculation_memoised

    clear_columnar_cache()
    clear_decoded_cache()
    _pipeline_result.cache_clear()
    measurement_cell.cache_clear()
    clear_speculation_memoised()


# ----------------------------------------------------------------------
# fig1: parametric PVP/PVN relations
# ----------------------------------------------------------------------


def experiment_figure1(scale: Scale = FULL) -> ExperimentResult:
    """Figure 1: closed-form PVP/PVN trajectories (no simulation)."""
    result = ExperimentResult(
        "fig1", "Parametric PVP/PVN vs SENS, SPEC and accuracy"
    )
    curves = figure1_family()
    for curve in curves:
        table = TextTable(
            title=f"Figure 1 curve: {curve.label}",
            headers=[curve.varying, "pvp", "pvn"],
        )
        for param, pvp, pvn in curve.decile_markers():
            table.add_row([f"{param:.1f}", pct1(pvp), pct1(pvn)])
        result.tables.append(table)
    result.data["curves"] = curves
    return result


# ----------------------------------------------------------------------
# tab1: program characteristics
# ----------------------------------------------------------------------


def experiment_table1(scale: Scale = FULL) -> ExperimentResult:
    """Table 1: instruction counts, branch counts, accuracies, ratio."""
    result = ExperimentResult("tab1", "Program characteristics")
    table = TextTable(
        title="Table 1: committed vs all instructions (gshare pipeline)",
        headers=[
            "application",
            "instr",
            "cond.br",
            "gshare",
            "McF.",
            "SAg",
            "all/committed",
        ],
    )
    ratios = {}
    accuracies = {}
    for workload in scale.workloads:
        run = workload_run(workload, scale.iterations)
        accs = {
            name: _measurement(
                name, workload, scale.iterations, ("accuracy",)
            ).accuracy
            for name in PREDICTORS
        }
        accuracies[workload] = accs
        pipe = _pipeline_result(
            workload,
            "gshare",
            scale.iterations,
            scale.pipeline_instructions,
            scale.segment_instructions,
            scale.backend,
        )
        # an empty pipeline run has no ratio: it renders as n/a,
        # never as a fabricated 0.00
        ratio = pipe.stats.fetch_to_commit_ratio_or_none()
        ratios[workload] = ratio
        table.add_row(
            [
                workload,
                f"{run.stats.instructions:,}",
                f"{run.stats.branches:,}",
                pct1(accs["gshare"]),
                pct1(accs["mcfarling"]),
                pct1(accs["sag"]),
                "n/a" if ratio is None else f"{ratio:.2f}",
            ]
        )
    table.add_note(
        "paper: the processor issues 20-100% more instructions than commit"
        " (ratio 1.2-2.0); accuracies are committed-branch prediction rates"
    )
    result.tables.append(table)
    result.data["ratios"] = ratios
    result.data["accuracies"] = accuracies
    return result


# ----------------------------------------------------------------------
# tab2: the four estimators over three predictors
# ----------------------------------------------------------------------


def experiment_table2(scale: Scale = FULL) -> ExperimentResult:
    """Table 2: SENS/SPEC/PVP/PVN of each estimator per predictor."""
    result = ExperimentResult(
        "tab2", "Confidence estimator comparison (suite averages)"
    )
    averages: Dict[Tuple[str, str], QuadrantCounts] = {}
    for predictor_name in PREDICTORS:
        per_workload, accuracies = _table2_measurements(
            predictor_name, scale.iterations, scale.workloads
        )
        table = TextTable(
            title=f"Table 2 ({predictor_name} predictor)",
            headers=["estimator", "sens", "spec", "pvp", "pvn", "paper"],
        )
        for estimator in ESTIMATOR_ORDER:
            quadrant = average_quadrants(
                [per_workload[w][estimator] for w in scale.workloads]
            )
            averages[(predictor_name, estimator)] = quadrant
            reference = paper_values.TABLE2.get((predictor_name, estimator))
            table.add_row(
                [
                    ESTIMATOR_LABELS[estimator],
                    *_metric_cells(quadrant),
                    paper_values.format_reference(reference) if reference else "--",
                ]
            )
        defined = [value for value in accuracies.values() if value is not None]
        mean_accuracy = sum(defined) / len(defined) if defined else None
        table.add_note(f"suite mean prediction accuracy: {pct1(mean_accuracy)}")
        result.tables.append(table)
    result.data["averages"] = averages
    return result


def experiment_table2_detail(scale: Scale = FULL) -> ExperimentResult:
    """Per-application estimator detail (the tech-report companion of
    Table 2), with 95% Wilson intervals on PVN."""
    from ..metrics.stats import format_with_interval

    result = ExperimentResult(
        "tab2d", "Per-application estimator detail with intervals"
    )
    per_application: Dict[Tuple[str, str, str], QuadrantCounts] = {}
    for predictor_name in PREDICTORS:
        per_workload, accuracies = _table2_measurements(
            predictor_name, scale.iterations, scale.workloads
        )
        table = TextTable(
            title=f"Per-application detail ({predictor_name} predictor)",
            headers=["application", "estimator", "sens", "spec", "pvp", "pvn (95% CI)"],
        )
        for workload in scale.workloads:
            for estimator in ESTIMATOR_ORDER:
                quadrant = per_workload[workload][estimator]
                per_application[(predictor_name, workload, estimator)] = quadrant
                table.add_row(
                    [
                        workload,
                        estimator,
                        pct(quadrant.sens),
                        pct(quadrant.spec),
                        pct(quadrant.pvp),
                        format_with_interval(quadrant, "pvn"),
                    ]
                )
            table.add_row(
                [
                    workload,
                    "(accuracy)",
                    "",
                    "",
                    "",
                    pct1(accuracies[workload]),
                ]
            )
        result.tables.append(table)
    result.data["per_application"] = per_application
    return result


# ----------------------------------------------------------------------
# fig3: enhanced vs original JRS index
# ----------------------------------------------------------------------


def _jrs_sweep(
    scale: Scale,
    predictor_name: str,
    table_size: int,
    enhanced: bool,
    thresholds: Sequence[int],
) -> SweepLine:
    lines = []
    for workload in scale.workloads:
        trace = _bank_trace(workload, scale.iterations)
        histogram = jrs_value_histogram(
            trace,
            make_predictor(predictor_name),
            table_size=table_size,
            enhanced=enhanced,
        )
        lines.append(histogram.sweep(list(thresholds), workload))
    label = f"{table_size} MDCs{' enhanced' if enhanced else ''}"
    return average_sweep_lines(lines, label)


def experiment_figure3(scale: Scale = FULL) -> ExperimentResult:
    """Figure 3: the enhanced (prediction-in-index) JRS variant wins."""
    result = ExperimentResult("fig3", "Enhanced JRS confidence estimator")
    thresholds = list(range(0, 17))
    enhanced = _jrs_sweep(scale, "gshare", 4096, True, thresholds)
    original = _jrs_sweep(scale, "gshare", 4096, False, thresholds)
    table = TextTable(
        title="Figure 3: JRS with/without prediction bit in the MDC index"
        " (gshare, 4096 4-bit MDCs)",
        headers=["threshold", "pvp(enh)", "pvn(enh)", "pvp(orig)", "pvn(orig)"],
    )
    for position, threshold in enumerate(thresholds):
        enhanced_quadrant = enhanced.points[position].quadrant
        original_quadrant = original.points[position].quadrant
        table.add_row(
            [
                threshold,
                pct1(enhanced_quadrant.pvp),
                pct1(enhanced_quadrant.pvn),
                pct1(original_quadrant.pvp),
                pct1(original_quadrant.pvn),
            ]
        )
    result.tables.append(table)
    result.data["enhanced"] = enhanced
    result.data["original"] = original
    return result


# ----------------------------------------------------------------------
# fig4/fig5: JRS design space
# ----------------------------------------------------------------------


def _jrs_design_space(
    scale: Scale, predictor_name: str, experiment_id: str, figure_name: str
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id, f"JRS design space on {predictor_name} ({figure_name})"
    )
    thresholds = list(range(0, 17))
    table_sizes = (64, 256, 1024, 4096)
    lines = {
        size: _jrs_sweep(scale, predictor_name, size, True, thresholds)
        for size in table_sizes
    }
    table = TextTable(
        title=f"{figure_name}: PVP/PVN per threshold, one line per MDC table size"
        f" ({predictor_name})",
        headers=["threshold"]
        + [f"pvp@{size}" for size in table_sizes]
        + [f"pvn@{size}" for size in table_sizes],
    )
    for position, threshold in enumerate(thresholds):
        row = [threshold]
        row.extend(
            pct1(lines[size].points[position].quadrant.pvp)
            for size in table_sizes
        )
        row.extend(
            pct1(lines[size].points[position].quadrant.pvn)
            for size in table_sizes
        )
        table.add_row(row)
    table.add_note(
        "threshold 16 is unreachable for a 4-bit MDC: everything is marked"
        " low-confidence and the PVN equals the misprediction rate"
    )
    result.tables.append(table)
    result.data["lines"] = lines
    return result


def experiment_figure4(scale: Scale = FULL) -> ExperimentResult:
    """Figure 4: JRS size/threshold sweep on gshare."""
    return _jrs_design_space(scale, "gshare", "fig4", "Figure 4")


def experiment_figure5(scale: Scale = FULL) -> ExperimentResult:
    """Figure 5: JRS size/threshold sweep on McFarling."""
    return _jrs_design_space(scale, "mcfarling", "fig5", "Figure 5")


# ----------------------------------------------------------------------
# tab3: McFarling saturating-counter variants
# ----------------------------------------------------------------------


def experiment_table3(scale: Scale = FULL) -> ExperimentResult:
    """Table 3: Both-Strong vs Either-Strong per application."""
    result = ExperimentResult(
        "tab3", "Saturating-counter variants on McFarling"
    )
    table = TextTable(
        title="Table 3: Both Strong vs Either Strong (McFarling predictor)",
        headers=[
            "application",
            "sens(B)",
            "spec(B)",
            "pvp(B)",
            "pvn(B)",
            "sens(E)",
            "spec(E)",
            "pvp(E)",
            "pvn(E)",
        ],
    )
    both_quadrants = []
    either_quadrants = []
    for workload in scale.workloads:
        cell = _measurement(
            "mcfarling", workload, scale.iterations, ("satcnt", "satcnt-either")
        )
        both = cell.quadrants["satcnt"]
        either = cell.quadrants["satcnt-either"]
        both_quadrants.append(both)
        either_quadrants.append(either)
        table.add_row(
            [workload] + _metric_cells(both) + _metric_cells(either)
        )
    both_mean = average_quadrants(both_quadrants)
    either_mean = average_quadrants(either_quadrants)
    table.add_row(
        ["Mean"] + _metric_cells(both_mean) + _metric_cells(either_mean)
    )
    table.add_note("paper means (Both Strong): sens 67%, spec 78%")
    result.tables.append(table)
    result.data["both_mean"] = both_mean
    result.data["either_mean"] = either_mean
    return result


# ----------------------------------------------------------------------
# figs 6-9: misprediction distance
# ----------------------------------------------------------------------


def _merge_curves(curves: Sequence[DistanceCurve], label: str) -> DistanceCurve:
    """Merge per-workload curves by summing bucket populations."""
    depth = max(len(curve.buckets) for curve in curves)
    branches = [0] * depth
    misses = [0] * depth
    for curve in curves:
        for bucket in curve.buckets:
            branches[bucket.distance] += bucket.branches
            misses[bucket.distance] += bucket.mispredictions
    buckets = tuple(
        DistanceBucket(distance=d, branches=branches[d], mispredictions=misses[d])
        for d in range(depth)
    )
    return DistanceCurve(
        label=label,
        buckets=buckets,
        total_branches=sum(branches),
        total_mispredictions=sum(misses),
    )


def _distance_figure(
    scale: Scale, predictor_name: str, kind: str, experiment_id: str, figure_name: str
) -> ExperimentResult:
    curve_fn = (
        precise_distance_curve if kind == "precise" else perceived_distance_curve
    )
    all_curves = []
    committed_curves = []
    window_depths: Dict[int, int] = {}
    for workload in scale.workloads:
        pipe = _pipeline_result(
            workload,
            predictor_name,
            scale.iterations,
            scale.pipeline_instructions,
            scale.segment_instructions,
            scale.backend,
        )
        all_curves.append(curve_fn(pipe.distances, population="all"))
        committed_curves.append(curve_fn(pipe.distances, population="committed"))
        # backends with a real in-flight window (ooo) record the window
        # depth seen at every misprediction recovery; aggregate it so
        # the report can put backend distance distributions side by side
        for depth, count in pipe.stats.extra.get(
            DEPTH_HISTOGRAM_KEY, {}
        ).items():
            window_depths[depth] = window_depths.get(depth, 0) + count
    merged_all = _merge_curves(all_curves, f"{kind}/all")
    merged_committed = _merge_curves(committed_curves, f"{kind}/committed")
    result = ExperimentResult(
        experiment_id,
        f"{figure_name}: {kind} misprediction distance ({predictor_name})",
    )
    table = TextTable(
        title=f"{figure_name}: misprediction rate vs {kind} distance"
        f" ({predictor_name}, suite aggregate)",
        headers=["distance", "all branches", "committed branches"],
    )
    depth = len(merged_all.buckets)
    for distance in range(depth):
        tag = f">={distance}" if distance == depth - 1 else str(distance)
        table.add_row(
            [
                tag,
                pct1(merged_all.buckets[distance].misprediction_rate),
                pct1(merged_committed.buckets[distance].misprediction_rate),
            ]
        )
    table.add_row(
        ["average", pct1(merged_all.average_rate), pct1(merged_committed.average_rate)]
    )
    table.add_note(
        "clustering: rates near distance 0 sit above the average line"
    )
    result.tables.append(table)
    result.data["all"] = merged_all
    result.data["committed"] = merged_committed
    # only window-tracking backends populate the depth histogram, so
    # the in-order report (and its golden bytes) never grows this table
    if kind == "perceived" and window_depths:
        result.tables.append(
            _window_depth_table(window_depths, scale.backend, figure_name)
        )
        result.data["window_depth"] = dict(sorted(window_depths.items()))
    return result


#: Bucket upper bounds for the window-depth distribution table.
_DEPTH_BUCKETS = (0, 2, 4, 8, 16, 32, 64, 128, 256)


def _window_depth_table(
    window_depths: Dict[int, int], backend: str, figure_name: str
) -> TextTable:
    """Distribution of in-flight window depth at mispredict recovery.

    The perceived-distance story depends on how much wrong-path work a
    backend has in flight when a misprediction is detected; this table
    makes the two backends' distributions directly comparable.
    """
    total = sum(window_depths.values())
    table = TextTable(
        title=f"{figure_name}: in-flight window depth at misprediction "
        f"recovery ({backend} backend)",
        headers=["window depth", "mispredicts", "share"],
    )
    lower = 0
    for upper in _DEPTH_BUCKETS:
        count = sum(
            n for depth, n in window_depths.items() if lower <= depth <= upper
        )
        tag = str(upper) if upper <= max(lower, 1) else f"{lower}-{upper}"
        table.add_row([tag, str(count), pct1(count / total if total else 0.0)])
        lower = upper + 1
    overflow = sum(
        n for depth, n in window_depths.items() if depth > _DEPTH_BUCKETS[-1]
    )
    if overflow:
        table.add_row(
            [
                f">{_DEPTH_BUCKETS[-1]}",
                str(overflow),
                pct1(overflow / total if total else 0.0),
            ]
        )
    mean = (
        sum(depth * n for depth, n in window_depths.items()) / total
        if total
        else 0.0
    )
    deepest = max(window_depths) if window_depths else 0
    table.add_note(
        f"{total} recoveries; mean depth {mean:.1f}, max {deepest} "
        f"instructions in flight"
    )
    return table


def experiment_figure6(scale: Scale = FULL) -> ExperimentResult:
    """Figure 6: precise distance, gshare."""
    return _distance_figure(scale, "gshare", "precise", "fig6", "Figure 6")


def experiment_figure7(scale: Scale = FULL) -> ExperimentResult:
    """Figure 7: precise distance, McFarling."""
    return _distance_figure(scale, "mcfarling", "precise", "fig7", "Figure 7")


def experiment_figure8(scale: Scale = FULL) -> ExperimentResult:
    """Figure 8: perceived distance, gshare."""
    return _distance_figure(scale, "gshare", "perceived", "fig8", "Figure 8")


def experiment_figure9(scale: Scale = FULL) -> ExperimentResult:
    """Figure 9: perceived distance, McFarling."""
    return _distance_figure(scale, "mcfarling", "perceived", "fig9", "Figure 9")


# ----------------------------------------------------------------------
# tab4: misprediction-distance estimator
# ----------------------------------------------------------------------


def experiment_table4(scale: Scale = FULL) -> ExperimentResult:
    """Table 4: the one-counter distance estimator vs the table ones."""
    result = ExperimentResult(
        "tab4", "Misprediction distance as confidence estimator"
    )
    table = TextTable(
        title="Table 4: distance estimator sweep vs reference estimators",
        headers=["estimator", "thr", "predictor", "sens", "spec", "pvp", "pvn", "paper"],
    )
    data: Dict[Tuple[str, str, object], QuadrantCounts] = {}

    def add_reference_rows(predictor_name: str) -> None:
        per_workload, __ = _table2_measurements(
            predictor_name, scale.iterations, scale.workloads
        )
        for estimator, threshold_label in (
            ("jrs", ">= 15"),
            ("satcnt", "N.A."),
            ("static", "> 90%"),
        ):
            quadrant = average_quadrants(
                [per_workload[w][estimator] for w in scale.workloads]
            )
            data[(estimator, predictor_name, None)] = quadrant
            reference = paper_values.TABLE2.get((predictor_name, estimator))
            table.add_row(
                [
                    ESTIMATOR_LABELS[estimator].split(",")[0],
                    threshold_label,
                    predictor_name,
                    *_metric_cells(quadrant),
                    paper_values.format_reference(reference) if reference else "--",
                ]
            )

    for predictor_name in ("gshare", "mcfarling"):
        add_reference_rows(predictor_name)
        lines = []
        for workload in scale.workloads:
            trace = _bank_trace(workload, scale.iterations)
            histogram = distance_value_histogram(
                trace, make_predictor(predictor_name), max_distance=16
            )
            lines.append(histogram.sweep(list(range(2, 9)), workload))
        averaged = average_sweep_lines(lines, f"distance/{predictor_name}")
        for point in averaged.points:
            distance_threshold = point.threshold - 1  # value>=t  <=>  dist>t-1
            quadrant = point.quadrant
            data[("distance", predictor_name, distance_threshold)] = quadrant
            reference = paper_values.TABLE4_DISTANCE.get(
                (predictor_name, distance_threshold)
            )
            table.add_row(
                [
                    "Distance",
                    f"> {distance_threshold}",
                    predictor_name,
                    *_metric_cells(quadrant),
                    paper_values.format_reference(reference) if reference else "--",
                ]
            )

    # the SAg pattern-history row the paper closes the table with
    sag_per_workload, __ = _table2_measurements("sag", scale.iterations, scale.workloads)
    sag_pattern = average_quadrants(
        [sag_per_workload[w]["pattern"] for w in scale.workloads]
    )
    data[("pattern", "sag", None)] = sag_pattern
    table.add_row(
        [
            "Hist. Pattern",
            "N.A.",
            "sag",
            *_metric_cells(sag_pattern),
            paper_values.format_reference(paper_values.TABLE2[("sag", "pattern")]),
        ]
    )
    result.tables.append(table)
    result.data["rows"] = data
    return result


# ----------------------------------------------------------------------
# boost: mis-estimation clustering and PVN boosting (§4.2)
# ----------------------------------------------------------------------


def experiment_boosting(scale: Scale = FULL) -> ExperimentResult:
    """§4.2: mis-estimation distance decay and boosted PVN."""
    result = ExperimentResult(
        "boost", "Mis-estimation clustering and confidence boosting"
    )
    configurations = (
        ("gshare", "jrs"),
        ("mcfarling", "jrs"),
        ("mcfarling", "satcnt"),
    )

    decay_table = TextTable(
        title="Mis-estimation rate vs distance since last mis-estimation",
        headers=["config", "d=0", "d=4", "d>=8", "average"],
    )
    boost_table = TextTable(
        title="Boosted PVN: empirical vs Bernoulli model 1-(1-pvn)^k",
        headers=["config", "base pvn", "k", "events", "empirical", "analytic"],
    )
    curves = {}
    boosting = {}
    for predictor_name, estimator_kind in configurations:
        label = f"{estimator_kind}@{predictor_name}"
        # each analysis consumes fresh state
        workload_curves = []
        for workload in scale.workloads:
            trace = _bank_trace(workload, scale.iterations)
            predictor = make_predictor(predictor_name)
            curve = misestimation_distance(
                trace,
                predictor,
                _family_estimator(
                    estimator_kind, predictor_name, predictor, workload, scale.iterations
                ),
            )
            workload_curves.append(curve)
        merged = _merge_curves(workload_curves, label)
        curves[label] = merged
        tail = merged.buckets[8:]
        tail_bucket = DistanceBucket(
            distance=8,
            branches=sum(bucket.branches for bucket in tail),
            mispredictions=sum(bucket.mispredictions for bucket in tail),
        )
        decay_table.add_row(
            [
                label,
                pct1(merged.buckets[0].misprediction_rate),
                pct1(merged.buckets[4].misprediction_rate),
                pct1(tail_bucket.misprediction_rate),
                pct1(merged.average_rate),
            ]
        )

        per_config = []
        for workload in scale.workloads:
            trace = _bank_trace(workload, scale.iterations)
            predictor = make_predictor(predictor_name)
            per_config.append(
                measure_boosting(
                    trace,
                    predictor,
                    _family_estimator(
                        estimator_kind, predictor_name, predictor, workload, scale.iterations
                    ),
                    ks=[1, 2, 3],
                )
            )
        # pool events across the suite
        for position, k in enumerate((1, 2, 3)):
            events = sum(results[position].events for results in per_config)
            hits = sum(
                results[position].events_with_misprediction for results in per_config
            )
            lc_events = sum(results[0].events for results in per_config)
            lc_hits = sum(
                results[0].events_with_misprediction for results in per_config
            )
            base = lc_hits / lc_events if lc_events else 0.0
            empirical = hits / events if events else 0.0
            boosting[(label, k)] = (base, empirical, boosted_pvn(base, k))
            boost_table.add_row(
                [
                    label,
                    pct1(base),
                    k,
                    events,
                    pct1(empirical),
                    pct1(boosted_pvn(base, k)),
                ]
            )
    decay_table.add_note(
        "paper: ~45% right after a mis-estimation, ~41% at distance 4,"
        " ~33% past distance 8"
    )
    result.tables.append(decay_table)
    result.tables.append(boost_table)
    result.data["curves"] = curves
    result.data["boosting"] = boosting
    return result


# ----------------------------------------------------------------------
# registry: every paper experiment declares itself as a spec
# ----------------------------------------------------------------------

#: Shorthand for the artifact dependency the paper battery shares.
_TRACE = ArtifactDep(kind="trace")


def _measurement_deps(
    predictors: Sequence[str], families: Tuple[str, ...]
) -> Tuple[ArtifactDep, ...]:
    return tuple(
        ArtifactDep(kind="measurement", predictor=name, families=families)
        for name in predictors
    )


def _pipeline_deps(predictors: Sequence[str]) -> Tuple[ArtifactDep, ...]:
    return tuple(
        ArtifactDep(kind="pipeline", predictor=name) for name in predictors
    )


for _spec in (
    ExperimentSpec(
        experiment_id="fig1",
        title="Parametric PVP/PVN vs SENS, SPEC and accuracy",
        run=experiment_figure1,
        section="paper",
        order=10,
        paper_ref="Figure 1",
        deps=(),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="tab1",
        title="Program characteristics",
        run=experiment_table1,
        section="paper",
        order=20,
        paper_ref="Table 1",
        deps=(_TRACE,)
        + _pipeline_deps(("gshare",))
        + _measurement_deps(PREDICTORS, ("accuracy",)),
    ),
    ExperimentSpec(
        experiment_id="tab2",
        title="Confidence estimator comparison (suite averages)",
        run=experiment_table2,
        section="paper",
        order=30,
        paper_ref="Table 2",
        deps=(_TRACE,) + _measurement_deps(PREDICTORS, STANDARD_FAMILIES),
    ),
    ExperimentSpec(
        experiment_id="tab2d",
        title="Per-application estimator detail with intervals",
        run=experiment_table2_detail,
        section="paper",
        order=40,
        paper_ref="Table 2 (tech-report detail)",
        deps=(_TRACE,) + _measurement_deps(PREDICTORS, STANDARD_FAMILIES),
    ),
    ExperimentSpec(
        experiment_id="fig3",
        title="Enhanced JRS confidence estimator",
        run=experiment_figure3,
        section="paper",
        order=50,
        paper_ref="Figure 3",
        deps=(_TRACE,),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="fig4",
        title="JRS design space on gshare (Figure 4)",
        run=experiment_figure4,
        section="paper",
        order=60,
        paper_ref="Figure 4",
        deps=(_TRACE,),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="fig5",
        title="JRS design space on McFarling (Figure 5)",
        run=experiment_figure5,
        section="paper",
        order=70,
        paper_ref="Figure 5",
        deps=(_TRACE,),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="tab3",
        title="Saturating-counter variants on McFarling",
        run=experiment_table3,
        section="paper",
        order=80,
        paper_ref="Table 3",
        deps=(_TRACE,)
        + _measurement_deps(("mcfarling",), ("satcnt", "satcnt-either")),
    ),
    ExperimentSpec(
        experiment_id="fig6",
        title="Figure 6: precise misprediction distance (gshare)",
        run=experiment_figure6,
        section="paper",
        order=90,
        paper_ref="Figure 6",
        deps=(_TRACE,) + _pipeline_deps(("gshare",)),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="fig7",
        title="Figure 7: precise misprediction distance (McFarling)",
        run=experiment_figure7,
        section="paper",
        order=100,
        paper_ref="Figure 7",
        deps=(_TRACE,) + _pipeline_deps(("mcfarling",)),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="fig8",
        title="Figure 8: perceived misprediction distance (gshare)",
        run=experiment_figure8,
        section="paper",
        order=110,
        paper_ref="Figure 8",
        deps=(_TRACE,) + _pipeline_deps(("gshare",)),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="fig9",
        title="Figure 9: perceived misprediction distance (McFarling)",
        run=experiment_figure9,
        section="paper",
        order=120,
        paper_ref="Figure 9",
        deps=(_TRACE,) + _pipeline_deps(("mcfarling",)),
        plot=True,
    ),
    ExperimentSpec(
        experiment_id="tab4",
        title="Misprediction distance as confidence estimator",
        run=experiment_table4,
        section="paper",
        order=130,
        paper_ref="Table 4",
        deps=(_TRACE,)
        + _measurement_deps(("gshare", "mcfarling", "sag"), STANDARD_FAMILIES),
    ),
    ExperimentSpec(
        experiment_id="boost",
        title="Mis-estimation clustering and confidence boosting",
        run=experiment_boosting,
        section="paper",
        order=140,
        paper_ref="Section 4.2",
        deps=(_TRACE,),
    ),
):
    SPECS.register(_spec)

# Loading the speculation-control battery registers its specs in SPECS
# (see the bottom of harness/speculation.py); the module imports the
# scaffolding above, so it must load after this module's registrations
# have run, whichever of the two modules is imported first.
from . import speculation as _speculation  # noqa: E402,F401


def run_experiment(experiment_id: str, scale: Scale = FULL) -> ExperimentResult:
    """Run one experiment by id (see :data:`repro.harness.spec.SPECS`)."""
    try:
        spec = SPECS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(SPECS)}"
        ) from None
    return spec.run(scale)
