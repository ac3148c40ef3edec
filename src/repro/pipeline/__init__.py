"""Speculative 5-stage pipeline simulator (sim-outorder substitute)."""

from .backends import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_BACKEND,
    create_simulator,
    normalize_backend,
)
from .caches import Cache
from .config import CacheConfig, PipelineConfig
from .core import PipelineResult, PipelineSimulator
from .decode import (
    DecodedProgram,
    clear_decoded_cache,
    decode_program,
    decoded_run,
)
from .ooo import (
    DEPTH_HISTOGRAM_KEY,
    OOO_COMMIT_WIDTH,
    OOO_ISSUE_WIDTH,
    OOO_WINDOW,
    OutOfOrderSimulator,
)
from .records import BranchRecord, BranchRecordStore, DistanceCounts, PipelineStats
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
    "create_simulator",
    "normalize_backend",
    "Cache",
    "CacheConfig",
    "PipelineConfig",
    "PipelineResult",
    "PipelineSimulator",
    "BranchRecord",
    "BranchRecordStore",
    "DistanceCounts",
    "PipelineStats",
    "DecodedProgram",
    "clear_decoded_cache",
    "decode_program",
    "decoded_run",
    "SNAPSHOT_SCHEMA",
    "PipelineSnapshot",
    "SnapshotError",
    "capture_snapshot",
    "restore_snapshot",
]
