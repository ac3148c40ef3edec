"""Experiment harness: one experiment per paper table/figure."""

from .spec import SPECS, ArtifactDep, ExperimentSpec
from .experiments import (
    FULL,
    PAPER,
    QUICK,
    SCALES,
    SMOKE,
    ExperimentResult,
    Scale,
    clear_memoised,
    measurement_cell,
    run_experiment,
)
from .checkpoint import load_checkpoint, spec_fingerprint, store_checkpoint
from .parallel import (
    FAILURE_CLASSES,
    RunAborted,
    abort_requested,
    classify_failure,
    clear_abort,
    plan_warm_levels,
    request_abort,
    run_parallel,
)
from .shard import (
    run_segmented,
    segment_count,
    segment_targets,
    segmentation_active,
    warm_segment,
)
from .runner import (
    ResumePlan,
    plan_resume,
    render_performance,
    render_report,
    render_speculation_control,
    run_all,
)
from .speculation import (
    GATE_THRESHOLDS,
    SPECULATION_BATTERY,
    SPECULATION_ESTIMATORS,
)
from .tables import TextTable, pct, pct1, spct1

__all__ = [
    "SPECS",
    "ArtifactDep",
    "ExperimentSpec",
    "measurement_cell",
    "spec_fingerprint",
    "FULL",
    "PAPER",
    "QUICK",
    "SCALES",
    "SMOKE",
    "ExperimentResult",
    "Scale",
    "clear_memoised",
    "run_experiment",
    "FAILURE_CLASSES",
    "RunAborted",
    "abort_requested",
    "classify_failure",
    "clear_abort",
    "request_abort",
    "load_checkpoint",
    "plan_resume",
    "plan_warm_levels",
    "run_parallel",
    "run_segmented",
    "segment_count",
    "segment_targets",
    "segmentation_active",
    "store_checkpoint",
    "warm_segment",
    "ResumePlan",
    "render_performance",
    "render_report",
    "render_speculation_control",
    "run_all",
    "GATE_THRESHOLDS",
    "SPECULATION_BATTERY",
    "SPECULATION_ESTIMATORS",
    "TextTable",
    "pct",
    "pct1",
    "spct1",
]
