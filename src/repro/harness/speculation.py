"""Speculation-control battery: the paper's §2.2 applications as
first-class harness experiments.

Three experiments turn the estimator-quality tables into end-to-end
speculation-control results on the cycle-level pipeline:

* ``speculation-gating`` -- Manne-style pipeline gating
  (:func:`repro.speculation.compare_gating`): fetch stalls while too
  many unresolved low-confidence branches are in flight.  The figures
  of merit are the paper's: wrong-path (squashed) instructions saved
  vs. IPC lost, swept over gating thresholds and estimator choices.
* ``speculation-eager`` -- selective dual-path execution
  (:func:`repro.speculation.compare_eager_execution`): forks on
  low-confidence branches convert covered mispredictions into a
  one-cycle path switch at the price of fetch dilution.
* ``speculation-inversion`` -- the negative result: inverting
  low-confidence predictions only pays at PVN > 50%, which no estimator
  reaches across the suite.  It runs no pipeline: each ledger is read
  off its own gshare estimator-bank cell
  (:func:`repro.harness.experiments.measurement_cell`, families
  ``jrs``, ``distance`` and ``boosted-distance``), measured over the
  gshare predictor scan the paper tables share, by
  :meth:`~repro.speculation.InversionResult.from_measurement`, the
  conversion :func:`~repro.speculation.evaluate_inversion` uses too.

Each gating and eager (workload, estimator[, threshold]) cell is
memoised in process and persisted in the artifact cache as the library
returns it -- a :class:`~repro.speculation.GatingComparison` or
:class:`~repro.speculation.EagerComparison`, counts only -- so the
parallel scheduler's warm waves (:mod:`repro.harness.parallel`) fan the
pipeline simulations out exactly like the figure experiments, and warm
reruns are cache reads.  The ungated baseline those cells compare
against is the gshare ``pipeline`` artifact that Table 1 and Figures 6
and 8 read (:func:`repro.harness.experiments._pipeline_result`): no
estimator steers an ungated run, so one run per workload serves every
cell.  Each experiment keys its cells by ``(workload, estimator[,
threshold])`` in ``data["cells"]`` and builds its journal rows from
them.  Registry metrics (``speculation.gated_cycles``,
``speculation.wrong_path_instructions``,
``speculation.wrong_path_saved``, ``speculation.recovery_cycles``,
``speculation.eager_*``) are counted when a cell is computed and ship
back from workers with the normal metric deltas;
``speculation.inversion_flips`` is counted where the inversion
experiment reads its ledgers, so every run of it counts, warm or cold.
``run_all`` summarises each speculation experiment as a
``speculation_summary`` journal event.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

from ..engine import get_cache, profile_fingerprint, workload_program
from ..obs.registry import REGISTRY
from ..pipeline import PipelineConfig, decoded_run, normalize_backend
from ..predictors import make_predictor
from ..speculation import (
    EagerComparison,
    GatingComparison,
    InversionResult,
    compare_eager_execution,
    compare_gating,
)
from .experiments import (
    FULL,
    ExperimentResult,
    Scale,
    _family_estimator,
    _measurement,
    _pipeline_result,
)
from .spec import CELL_SCHEMA, SPECS, ArtifactDep, ExperimentSpec
from .tables import TextTable, pct1, spct1

#: The predictor every speculation experiment runs on.
SPECULATION_PREDICTOR = "gshare"

#: Estimator configurations the speculation battery sweeps: the
#: estimator-bank families of the same names, each defined once by
#: :func:`~repro.harness.experiments._family_estimator`.  The factories
#: take the (fresh) predictor the comparison runs against, so each
#: gated/eager run gets independent estimator state.
SPECULATION_ESTIMATORS: Dict[str, Callable] = {
    family: partial(
        _family_estimator, family, SPECULATION_PREDICTOR, workload=None, iterations=None
    )
    for family in ("jrs", "distance", "boosted-distance")
}

#: Gating thresholds swept by ``speculation-gating`` (unresolved
#: low-confidence branches in flight before fetch stalls).
GATE_THRESHOLDS: Tuple[int, ...] = (1, 2)

#: Experiment ids, in battery order (``repro speculate`` runs these).
SPECULATION_BATTERY: Tuple[str, ...] = (
    "speculation-gating",
    "speculation-eager",
    "speculation-inversion",
)


def _predictor_factory():
    return make_predictor(SPECULATION_PREDICTOR)


# ----------------------------------------------------------------------
# cached cells (the unit the warm waves fan out over)
# ----------------------------------------------------------------------


def _estimator_factory(name: str) -> Callable:
    try:
        return SPECULATION_ESTIMATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown speculation estimator {name!r}; "
            f"available: {', '.join(sorted(SPECULATION_ESTIMATORS))}"
        ) from None


def _compute_gating_cell(
    workload: str,
    estimator_name: str,
    threshold: int,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int],
    backend: str,
) -> GatingComparison:
    config = PipelineConfig()
    comparison = compare_gating(
        workload_program(workload, iterations),
        _predictor_factory,
        _estimator_factory(estimator_name),
        gate_threshold=threshold,
        config=config,
        max_instructions=max_instructions,
        decoded=decoded_run(workload, iterations),
        backend=backend,
        # the ungated run: the gshare ``pipeline`` artifact, which no
        # estimator steers, so one run per workload serves every cell
        baseline=_pipeline_result(
            workload,
            SPECULATION_PREDICTOR,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ),
    )
    REGISTRY.count("speculation.gated_cycles", comparison.gated_cycles)
    REGISTRY.count(
        "speculation.wrong_path_instructions", comparison.baseline_squashed
    )
    REGISTRY.count("speculation.wrong_path_saved", comparison.wrong_path_saved)
    REGISTRY.count(
        "speculation.recovery_cycles",
        comparison.gated_mispredictions * (1 + config.mispredict_penalty),
    )
    return comparison


@lru_cache(maxsize=512)
def gating_cell(
    workload: str,
    estimator_name: str,
    threshold: int,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int] = None,
    backend: str = "inorder",
) -> GatingComparison:
    # like the ``pipeline`` artifact it compares against, the cell's key
    # leaves out the segment size, which cannot change the result
    backend = normalize_backend(backend)
    return get_cache().cached(
        "spec-gating",
        lambda: _compute_gating_cell(
            workload,
            estimator_name,
            threshold,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ),
        workload=workload,
        estimator=estimator_name,
        threshold=threshold,
        iterations=iterations,
        max_instructions=max_instructions,
        predictor=SPECULATION_PREDICTOR,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
        schema=CELL_SCHEMA,
    )


def _compute_eager_cell(
    workload: str,
    estimator_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int],
    backend: str,
) -> EagerComparison:
    comparison = compare_eager_execution(
        workload_program(workload, iterations),
        _predictor_factory,
        _estimator_factory(estimator_name),
        config=PipelineConfig(),
        max_instructions=max_instructions,
        decoded=decoded_run(workload, iterations),
        backend=backend,
        baseline=_pipeline_result(
            workload,
            SPECULATION_PREDICTOR,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ),
    )
    REGISTRY.count("speculation.eager_forks", comparison.forks)
    REGISTRY.count("speculation.eager_covered", comparison.covered_mispredictions)
    REGISTRY.count("speculation.eager_wasted_slots", comparison.wasted_slots)
    return comparison


@lru_cache(maxsize=512)
def eager_cell(
    workload: str,
    estimator_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int] = None,
    backend: str = "inorder",
) -> EagerComparison:
    backend = normalize_backend(backend)
    return get_cache().cached(
        "spec-eager",
        lambda: _compute_eager_cell(
            workload,
            estimator_name,
            iterations,
            max_instructions,
            segment_instructions,
            backend,
        ),
        workload=workload,
        estimator=estimator_name,
        iterations=iterations,
        max_instructions=max_instructions,
        predictor=SPECULATION_PREDICTOR,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
        schema=CELL_SCHEMA,
    )


def clear_speculation_memoised() -> None:
    """Drop the in-process memo tier of the speculation cells."""
    gating_cell.cache_clear()
    eager_cell.cache_clear()


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def experiment_speculation_gating(scale: Scale = FULL) -> ExperimentResult:
    """Pipeline gating: wrong-path savings vs IPC loss per threshold."""
    result = ExperimentResult(
        "speculation-gating",
        "Pipeline gating on low-confidence branch count",
    )
    table = TextTable(
        title="Speculation control (pipeline gating):"
        " wrong-path savings vs IPC delta"
        f" ({SPECULATION_PREDICTOR} pipeline)",
        headers=[
            "workload",
            "estimator",
            "thr",
            "gated cyc",
            "wrong-path saved",
            "squash cut",
            "ipc delta",
            "slowdown",
        ],
    )
    cells: Dict[Tuple[str, str, int], GatingComparison] = {}
    rows: List[Dict] = []
    for workload in scale.workloads:
        for estimator_name in SPECULATION_ESTIMATORS:
            for threshold in GATE_THRESHOLDS:
                cell = gating_cell(
                    workload,
                    estimator_name,
                    threshold,
                    scale.iterations,
                    scale.pipeline_instructions,
                    scale.segment_instructions,
                    scale.backend,
                )
                cells[workload, estimator_name, threshold] = cell
                table.add_row(
                    [
                        workload,
                        estimator_name,
                        threshold,
                        cell.gated_cycles,
                        cell.wrong_path_saved,
                        pct1(cell.extra_work_reduction),
                        spct1(cell.ipc_delta),
                        spct1(cell.slowdown),
                    ]
                )
                rows.append(
                    {
                        "workload": workload,
                        "estimator": estimator_name,
                        "threshold": threshold,
                        "wrong_path_saved": cell.wrong_path_saved,
                        "squash_reduction": cell.extra_work_reduction,
                        "ipc_delta": cell.ipc_delta,
                        "slowdown": cell.slowdown,
                        "gated_cycles": cell.gated_cycles,
                    }
                )
    table.add_note(
        "paper §2.2 / Manne et al.: a good estimator buys a large cut in"
        " squashed (wrong-path) work for a small IPC loss"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = rows
    return result


def experiment_speculation_eager(scale: Scale = FULL) -> ExperimentResult:
    """Selective dual-path execution per estimator."""
    result = ExperimentResult(
        "speculation-eager",
        "Selective eager (dual-path) execution on low confidence",
    )
    table = TextTable(
        title="Speculation control (dual-path): fork precision vs speedup"
        f" ({SPECULATION_PREDICTOR} pipeline)",
        headers=[
            "workload",
            "estimator",
            "forks",
            "covered",
            "precision",
            "wasted slots",
            "speedup",
        ],
    )
    cells: Dict[Tuple[str, str], EagerComparison] = {}
    rows: List[Dict] = []
    for workload in scale.workloads:
        for estimator_name in SPECULATION_ESTIMATORS:
            cell = eager_cell(
                workload,
                estimator_name,
                scale.iterations,
                scale.pipeline_instructions,
                scale.segment_instructions,
                scale.backend,
            )
            cells[workload, estimator_name] = cell
            table.add_row(
                [
                    workload,
                    estimator_name,
                    cell.forks,
                    cell.covered_mispredictions,
                    pct1(cell.fork_precision),
                    cell.wasted_slots,
                    spct1(cell.speedup),
                ]
            )
            rows.append(
                {
                    "workload": workload,
                    "estimator": estimator_name,
                    "forks": cell.forks,
                    "covered": cell.covered_mispredictions,
                    "wasted_slots": cell.wasted_slots,
                    "speedup": cell.speedup,
                }
            )
    table.add_note(
        "every covered misprediction converts a flush into a one-cycle"
        " switch; every false fork pays fetch dilution for nothing"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = rows
    return result


def experiment_speculation_inversion(scale: Scale = FULL) -> ExperimentResult:
    """Prediction inversion: the paper's negative result, measured."""
    result = ExperimentResult(
        "speculation-inversion",
        "Prediction inversion on low confidence (negative result)",
    )
    table = TextTable(
        title="Speculation control (inversion): accuracy delta vs flip PVN"
        f" ({SPECULATION_PREDICTOR} trace engine)",
        headers=[
            "workload",
            "estimator",
            "flips",
            "base acc",
            "inverted acc",
            "delta",
            "flip pvn",
        ],
    )
    cells: Dict[Tuple[str, str], InversionResult] = {}
    rows: List[Dict] = []
    for workload in scale.workloads:
        bank = _measurement(
            SPECULATION_PREDICTOR,
            workload,
            scale.iterations,
            tuple(SPECULATION_ESTIMATORS),
        )
        for estimator_name in SPECULATION_ESTIMATORS:
            cell = InversionResult.from_measurement(bank, estimator_name)
            REGISTRY.count("speculation.inversion_flips", cell.flips)
            cells[workload, estimator_name] = cell
            table.add_row(
                [
                    workload,
                    estimator_name,
                    cell.flips,
                    pct1(cell.base_accuracy),
                    pct1(cell.inverted_accuracy),
                    spct1(cell.accuracy_delta),
                    pct1(cell.flip_pvn),
                ]
            )
            rows.append(
                {
                    "workload": workload,
                    "estimator": estimator_name,
                    "flips": cell.flips,
                    "accuracy_delta": cell.accuracy_delta,
                    "flip_pvn": cell.flip_pvn,
                }
            )
    table.add_note(
        "inversion wins only at flip PVN > 50%; the paper reports no"
        " estimator reaches it across a range of programs"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = rows
    return result


# Self-registration keeps the import order flexible: whichever of
# experiments.py / speculation.py loads first, the central SPECS
# registry ends up complete once both have executed.  Each spec
# declares the artifacts the warm waves must materialise: the gating
# and eager cells with the gshare pipeline run they compare against,
# and inversion's gshare estimator-bank families.
_BASELINE = ArtifactDep(kind="pipeline", predictor=SPECULATION_PREDICTOR)

SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-gating",
        title="Pipeline gating on low-confidence branch count",
        run=experiment_speculation_gating,
        section="speculation",
        order=150,
        paper_ref="Section 2.2 (Manne et al.)",
        deps=(ArtifactDep(kind="trace"), _BASELINE)
        + tuple(
            ArtifactDep(kind="gating", estimator=estimator, threshold=threshold)
            for estimator in SPECULATION_ESTIMATORS
            for threshold in GATE_THRESHOLDS
        ),
    )
)
SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-eager",
        title="Selective eager (dual-path) execution on low confidence",
        run=experiment_speculation_eager,
        section="speculation",
        order=160,
        paper_ref="Section 2.2",
        deps=(ArtifactDep(kind="trace"), _BASELINE)
        + tuple(
            ArtifactDep(kind="eager", estimator=estimator)
            for estimator in SPECULATION_ESTIMATORS
        ),
    )
)
SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-inversion",
        title="Prediction inversion on low confidence (negative result)",
        run=experiment_speculation_inversion,
        section="speculation",
        order=170,
        paper_ref="Section 2.2",
        deps=(
            ArtifactDep(kind="trace"),
            ArtifactDep(
                kind="measurement",
                predictor=SPECULATION_PREDICTOR,
                families=tuple(SPECULATION_ESTIMATORS),
            ),
        ),
    )
)
