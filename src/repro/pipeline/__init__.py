"""Speculative 5-stage pipeline simulator (sim-outorder substitute)."""

from .backends import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_BACKEND,
    PipelineBackend,
    create_simulator,
    normalize_backend,
    register_backend,
)
from .caches import Cache
from .config import CacheConfig, PipelineConfig
from .core import PipelineResult, PipelineSimulator
from .decode import (
    PIPELINE_FAST_ENV,
    DecodedProgram,
    clear_decoded_cache,
    decode_program,
    decoded_run,
    pipeline_fast_enabled,
)
from .ooo import (
    DEPTH_HISTOGRAM_KEY,
    OOO_COMMIT_WIDTH,
    OOO_ISSUE_WIDTH,
    OOO_WINDOW,
    OutOfOrderSimulator,
)
from .records import BranchRecord, BranchRecordStore, PipelineStats
from .snapshot import (
    SNAPSHOT_SCHEMA,
    PipelineSnapshot,
    SnapshotError,
    capture_snapshot,
    restore_snapshot,
)

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "DEPTH_HISTOGRAM_KEY",
    "OOO_COMMIT_WIDTH",
    "OOO_ISSUE_WIDTH",
    "OOO_WINDOW",
    "OutOfOrderSimulator",
    "PipelineBackend",
    "create_simulator",
    "normalize_backend",
    "register_backend",
    "Cache",
    "CacheConfig",
    "PipelineConfig",
    "PipelineResult",
    "PipelineSimulator",
    "BranchRecord",
    "BranchRecordStore",
    "PipelineStats",
    "DecodedProgram",
    "PIPELINE_FAST_ENV",
    "clear_decoded_cache",
    "decode_program",
    "decoded_run",
    "pipeline_fast_enabled",
    "SNAPSHOT_SCHEMA",
    "PipelineSnapshot",
    "SnapshotError",
    "capture_snapshot",
    "restore_snapshot",
]
