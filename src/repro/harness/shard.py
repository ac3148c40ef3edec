"""Segmented (shardable, checkpointable) pipeline cell execution.

Long pipeline simulations are the battery's unit of irrecoverable
work: a (workload, predictor) cell at paper scale runs tens of
millions of committed instructions, and before this module a mid-run
crash threw the whole cell away.  ``run_segmented`` splits one cell
into fixed instruction-budget **segments**: after each segment the
paused simulator is frozen (:mod:`repro.pipeline.snapshot`) and stored
as a content-addressed ``pipeline-segment`` artifact, so

* a killed run resumes from the furthest stored segment instead of
  from zero (``--resume`` restarts *mid-cell*),
* the warm-up waves (:mod:`repro.harness.parallel`) walk a cell's
  segment chain one link per wave while independent cells run
  concurrently in other processes -- sharding the pipeline grid.

Segment boundaries are *soft* (``stop_instructions``): the run loop
pauses at the top of a cycle once the boundary is reached, which the
equivalence tests prove leaves the simulation cycle-for-cycle
identical to one that never paused.  The final ``pipeline`` artifact
is therefore byte-identical whatever the segmentation -- its cache key
deliberately does **not** include the segment size.

Segment artifacts *are* keyed by segment size (and schema version and
everything that feeds the simulation), so changing
``--segment-instructions`` can never resume from a mismatched chain.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine import get_cache, profile_fingerprint, workload_program
from ..pipeline import (
    SNAPSHOT_SCHEMA,
    PipelineConfig,
    PipelineResult,
    PipelineSimulator,
    SnapshotError,
    capture_snapshot,
    create_simulator,
    decoded_run,
    restore_snapshot,
)
from ..predictors import make_predictor


def segmentation_active(
    max_instructions: Optional[int], segment_instructions: Optional[int]
) -> bool:
    """Does this (budget, segment size) pair actually split the run?"""
    return bool(
        max_instructions
        and segment_instructions
        and 0 < segment_instructions < max_instructions
    )


def segment_targets(
    max_instructions: int, segment_instructions: int
) -> List[int]:
    """Cumulative soft boundaries, ending with the hard total budget.

    ``segment_targets(100, 30) == [30, 60, 90, 100]``: three snapshot
    boundaries plus the final stretch.  A boundary may be overshot by
    up to ``commit_width - 1`` committed instructions (soft stop);
    only the final total truncates exactly.
    """
    if not segmentation_active(max_instructions, segment_instructions):
        return [max_instructions]
    targets = list(
        range(segment_instructions, max_instructions, segment_instructions)
    )
    targets.append(max_instructions)
    return targets


def segment_count(
    max_instructions: Optional[int], segment_instructions: Optional[int]
) -> int:
    """Snapshot boundaries a cell's chain has (0 when not segmented)."""
    if not segmentation_active(max_instructions, segment_instructions):
        return 0
    return len(segment_targets(max_instructions, segment_instructions)) - 1


def build_cell_simulator(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    backend: str = "inorder",
) -> PipelineSimulator:
    """A fresh pipeline simulator for one (workload, predictor) cell.

    This is the single construction point shared by whole-cell runs
    (:func:`repro.harness.experiments._compute_pipeline_result`) and
    segment chains, so both start from identical state.  ``backend``
    picks the simulator class from the pipeline backend registry.
    """
    return create_simulator(
        workload_program(workload, iterations),
        make_predictor(predictor_name),
        backend=backend,
        config=PipelineConfig(),
        decoded=decoded_run(workload, iterations),
    )


def segment_parts(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: int,
    segment: int,
    backend: str = "inorder",
) -> dict:
    """Cache-key parts for one ``pipeline-segment`` artifact."""
    return dict(
        workload=workload,
        predictor=predictor_name,
        iterations=iterations,
        max_instructions=max_instructions,
        segment_instructions=segment_instructions,
        segment=segment,
        schema=SNAPSHOT_SCHEMA,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
    )


def _simulator_at(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: int,
    upto: int,
    backend: str = "inorder",
) -> PipelineSimulator:
    """The cell's simulator paused at segment boundary ``upto``.

    Scans the cache from ``upto`` downward for the furthest stored
    snapshot, restores it, and simulates only the missing segments --
    storing each newly reached boundary.  Idempotent: re-running for a
    boundary that is already cached costs one snapshot restore.
    """
    targets = segment_targets(max_instructions, segment_instructions)
    boundaries = targets[:-1]
    cache = get_cache()

    def key(index: int) -> str:
        return cache.key(
            "pipeline-segment",
            **segment_parts(
                workload,
                predictor_name,
                iterations,
                max_instructions,
                segment_instructions,
                index,
                backend,
            ),
        )

    simulator: Optional[PipelineSimulator] = None
    start = 0
    for index in range(upto, -1, -1):
        hit, snapshot = cache.load(key(index))
        if not hit:
            continue
        try:
            simulator = restore_snapshot(snapshot)
        except SnapshotError:
            continue  # stale/garbled snapshot: fall back one boundary
        start = index + 1
        break
    if simulator is None:
        simulator = build_cell_simulator(workload, predictor_name, iterations, backend)
    for index in range(start, upto + 1):
        simulator.run(
            max_instructions=max_instructions,
            stop_instructions=boundaries[index],
        )
        cache.store(key(index), capture_snapshot(simulator))
    return simulator


def warm_segment(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: int,
    segment: int,
    backend: str = "inorder",
) -> dict:
    """Warm task: materialise segments ``0..segment`` of one cell.

    Returns a small progress summary (the snapshot itself stays in the
    artifact cache; shipping megabytes of machine state through the
    pool result queue would defeat the point).
    """
    simulator = _simulator_at(
        workload,
        predictor_name,
        iterations,
        max_instructions,
        segment_instructions,
        segment,
        backend,
    )
    return {
        "segment": segment,
        "committed_instructions": simulator.stats.committed_instructions,
        "done": simulator.done,
    }


def run_segmented(
    workload: str,
    predictor_name: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int],
    backend: str = "inorder",
) -> PipelineResult:
    """Run one pipeline cell to completion, segment chain and all.

    With segmentation inactive this is exactly the whole-cell run.
    Otherwise the chain's snapshots are restored/extended as needed and
    the final stretch runs to the hard budget; the returned result is
    byte-identical to the unsegmented run either way.
    """
    if not segmentation_active(max_instructions, segment_instructions):
        simulator = build_cell_simulator(workload, predictor_name, iterations, backend)
        return simulator.run(max_instructions=max_instructions)
    last = segment_count(max_instructions, segment_instructions) - 1
    simulator = _simulator_at(
        workload,
        predictor_name,
        iterations,
        max_instructions,
        segment_instructions,
        last,
        backend,
    )
    return simulator.run(max_instructions=max_instructions)
