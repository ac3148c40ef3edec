"""Picklable mid-run pipeline checkpoints (segment snapshots).

A :class:`PipelineSnapshot` freezes a paused
:class:`~repro.pipeline.core.PipelineSimulator` -- machine registers,
journaled memory, pc, predictor tables, estimator state,
:class:`~repro.pipeline.records.PipelineStats`, the
:class:`~repro.pipeline.records.DistanceTally`, any in-flight entries,
and the reference engine's
:class:`~repro.pipeline.records.BranchRecordStore` (empty after fused
runs) -- so a later process can resume the simulation
cycle-for-cycle identically to one that never paused.  Past the
program and its decoded form, the payload of a fused run grows with
the largest misprediction distance and the in-flight window, not with
the instructions run so far.  This is what makes long pipeline runs
shardable: :mod:`repro.harness.shard` splits each (workload,
predictor) cell into fixed instruction-budget segments and stores one
snapshot per segment as a content-addressed ``pipeline-segment``
artifact.

The whole simulator is captured as a single pickle so every shared
reference survives intact (estimator objects are aliased from the
in-flight entries' assessment tuples; the dual-path simulator's active
fork aliases its deque entry).  In-flight entries are pickled in the
layout of the engine that made them, and a restored simulator resumes
on that engine: a fused one carries its decoded program.  Capture
pickles immediately -- ``capture_snapshot`` returns a deep, frozen
copy by construction, so continuing the live simulator afterwards
cannot mutate the checkpoint.
The simulator's ``fast``/``decoded`` machinery cooperates:
:class:`~repro.pipeline.decode.DecodedProgram` drops its closures on
pickling and rebuilds them lazily, ``BranchRecordStore`` resets its
view and column memos, and the machine's undo-log ``_MISSING``
sentinel is pickle-stable (see :mod:`repro.isa.machine`).  A snapshot
is the only place a decoded program is pickled: a restored simulator
carries its own copy, not the restoring process's shared
:func:`~repro.pipeline.decode.decoded_run` memo.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

#: Bump when the snapshot payload layout changes; restores refuse
#: mismatched schemas instead of resuming from garbage.  ``/3``: every
#: in-flight branch holds the ``Prediction`` record its predictor's
#: ``predict`` returns (``/2`` could hold a fused-loop token).  ``/4``:
#: the simulator carries a ``DistanceTally`` and its in-flight entries a
#: perceived distance, and machine checkpoints are plain tuples; a
#: ``/3`` payload has neither, so its cache entries read as misses.
#: ``/5``: a fused simulator keeps its in-flight entries in the fused
#: loop's list layout, with its tokens, and carries its gate's running
#: low-confidence count; a reference simulator still holds ``_Inflight``
#: entries.
SNAPSHOT_SCHEMA = "pipeline-snapshot/5"


class SnapshotError(RuntimeError):
    """A snapshot could not be restored (wrong schema or payload)."""


@dataclass(frozen=True)
class PipelineSnapshot:
    """One frozen segment boundary of a pipeline simulation.

    The metadata fields describe the paused run without unpickling it,
    so schedulers can pick the furthest usable snapshot cheaply;
    ``payload`` is the pickled simulator itself.
    """

    schema: str
    committed_instructions: int
    cycle: int
    done: bool
    fetched_branches: int
    payload: bytes


def capture_snapshot(simulator) -> PipelineSnapshot:
    """Freeze ``simulator`` at its current (paused) state."""
    return PipelineSnapshot(
        schema=SNAPSHOT_SCHEMA,
        committed_instructions=simulator.stats.committed_instructions,
        cycle=simulator.cycle,
        done=simulator.done,
        fetched_branches=simulator.stats.fetched_branches,
        payload=pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL),
    )


def restore_snapshot(snapshot: PipelineSnapshot):
    """Thaw a simulator that resumes exactly where ``snapshot`` paused."""
    if snapshot.schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot schema {snapshot.schema!r} != {SNAPSHOT_SCHEMA!r}"
        )
    try:
        simulator = pickle.loads(snapshot.payload)
    except Exception as error:  # corrupt payload: caller recomputes
        raise SnapshotError(f"unreadable snapshot payload: {error}") from error
    if (
        simulator.stats.committed_instructions
        != snapshot.committed_instructions
    ):
        raise SnapshotError(
            "snapshot metadata disagrees with payload:"
            f" {simulator.stats.committed_instructions} committed"
            f" != {snapshot.committed_instructions}"
        )
    return simulator
