"""Per-branch records and per-distance counts of the pipeline simulator.

The paper's §3.1 point is that the processor cannot tell committed and
wrong-path branches apart at prediction time, and the §4 clustering
analysis needs both views: Figures 6-9 count every *fetched*
conditional branch, and the committed ones, at each misprediction
distance.  A run keeps those four histograms as a
:class:`DistanceTally` that both pipeline engines count into as they
go, so a :class:`~repro.pipeline.core.PipelineResult` carries
:class:`DistanceCounts` built in O(largest distance), whatever the
run's length.

Only the reference engine (``fast=False``) also logs
each fetched branch, into a :class:`BranchRecordStore`: append-only
columnar buffers (one flat python list per field, the
:class:`~repro.engine.columnar.ColumnarTrace` convention).  That log is
the tests' per-branch view and oracle --
:meth:`DistanceCounts.from_store` recounts the histograms from it, via
:meth:`BranchRecordStore.distance_columns`, which converts the four
fields it needs to numpy and memoises them against a mutation stamp;
:meth:`BranchRecordStore.materialize` builds :class:`BranchRecord`
views on demand, memoised the same way.  The fused engine appends
nothing, so a fused run leaves the store empty and its memory flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Store slots that survive pickling (the view and column memos do not).
_STORE_SLOTS = (
    "sequence",
    "pc",
    "predicted_taken",
    "actual_taken",
    "fetch_cycle",
    "resolve_cycle",
    "committed",
    "precise_distance",
    "perceived_distance",
    "wrong_path",
    "assessments",
)


@dataclass
class BranchRecord:
    """One fetched conditional branch as the pipeline saw it."""

    __slots__ = (
        "sequence",
        "pc",
        "predicted_taken",
        "actual_taken",
        "fetch_cycle",
        "resolve_cycle",
        "committed",
        "precise_distance",
        "perceived_distance",
        "wrong_path",
        "assessments",
    )

    sequence: int
    pc: int
    predicted_taken: bool
    #: Outcome in the context the branch executed in (for wrong-path
    #: branches this is the outcome *down that wrong path*).
    actual_taken: bool
    fetch_cycle: int
    #: Cycle the branch resolved/committed; None if squashed.
    resolve_cycle: Optional[int]
    #: True iff the branch eventually committed (was never squashed).
    committed: bool
    #: Fetched branches since the last *actually mispredicted* branch
    #: was fetched (the paper's "precise" distance, Figures 6/7).
    precise_distance: int
    #: Fetched branches since the last *detected* (resolved)
    #: misprediction (the paper's "perceived" distance, Figures 8/9).
    perceived_distance: int
    #: True iff fetched while an older misprediction was unresolved.
    wrong_path: bool
    #: Confidence estimates at fetch: estimator name -> high confidence.
    assessments: Dict[str, bool]

    @property
    def mispredicted(self) -> bool:
        return self.predicted_taken != self.actual_taken


class BranchRecordStore:
    """Append-only columnar buffers of every branch the reference
    engine fetched.

    One python list per :class:`BranchRecord` field, indexed by append
    order.  ``assessments`` stores ``None`` for branches fetched with
    no estimators attached and a plain dict otherwise; views
    materialise ``None`` as ``{}``.  A reference simulator logs every
    branch it fetched, and resolves each one it committed; a fused
    simulator's store stays empty.
    """

    __slots__ = _STORE_SLOTS + ("_views", "_columns", "_stamp")

    def __init__(self):
        self.sequence: List[int] = []
        self.pc: List[int] = []
        self.predicted_taken: List[bool] = []
        self.actual_taken: List[bool] = []
        self.fetch_cycle: List[int] = []
        self.resolve_cycle: List[Optional[int]] = []
        self.committed: List[bool] = []
        self.precise_distance: List[int] = []
        self.perceived_distance: List[int] = []
        self.wrong_path: List[bool] = []
        self.assessments: List[Optional[Dict[str, bool]]] = []
        self._views = None  # (stamp, [BranchRecord, ...]) memo
        self._columns = None  # (stamp, distance_columns()) memo
        self._stamp = 0

    def __len__(self) -> int:
        return len(self.sequence)

    def append(
        self,
        sequence: int,
        pc: int,
        predicted_taken: bool,
        actual_taken: bool,
        fetch_cycle: int,
        precise_distance: int,
        perceived_distance: int,
        wrong_path: bool,
        assessments: Optional[Dict[str, bool]],
    ) -> int:
        """Append one fetched branch (unresolved); return its index."""
        index = len(self.sequence)
        self.sequence.append(sequence)
        self.pc.append(pc)
        self.predicted_taken.append(predicted_taken)
        self.actual_taken.append(actual_taken)
        self.fetch_cycle.append(fetch_cycle)
        self.resolve_cycle.append(None)
        self.committed.append(False)
        self.precise_distance.append(precise_distance)
        self.perceived_distance.append(perceived_distance)
        self.wrong_path.append(wrong_path)
        self.assessments.append(assessments)
        self._stamp += 1
        return index

    def resolve(self, index: int, cycle: int) -> None:
        """Mark the branch at ``index`` committed at ``cycle``."""
        self.committed[index] = True
        self.resolve_cycle[index] = cycle
        self._stamp += 1

    def materialize(self) -> List[BranchRecord]:
        """Dataclass views of every record (memoised per mutation)."""
        memo = self._views
        if memo is not None and memo[0] == self._stamp:
            return memo[1]
        views = [
            BranchRecord(
                sequence=self.sequence[i],
                pc=self.pc[i],
                predicted_taken=self.predicted_taken[i],
                actual_taken=self.actual_taken[i],
                fetch_cycle=self.fetch_cycle[i],
                resolve_cycle=self.resolve_cycle[i],
                committed=self.committed[i],
                precise_distance=self.precise_distance[i],
                perceived_distance=self.perceived_distance[i],
                wrong_path=self.wrong_path[i],
                assessments=self.assessments[i] or {},
            )
            for i in range(len(self.sequence))
        ]
        self._views = (self._stamp, views)
        return views

    def distance_columns(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(precise, perceived, mispredicted, committed)`` columns.

        int64 distances and bool flags in fetch order, with
        ``mispredicted = predicted_taken != actual_taken``.  Read-only
        arrays, memoised per mutation like :meth:`materialize`.
        """
        memo = self._columns
        if memo is not None and memo[0] == self._stamp:
            return memo[1]
        columns = (
            np.array(self.precise_distance, dtype=np.int64),
            np.array(self.perceived_distance, dtype=np.int64),
            np.array(self.predicted_taken, dtype=bool)
            != np.array(self.actual_taken, dtype=bool),
            np.array(self.committed, dtype=bool),
        )
        for column in columns:
            column.flags.writeable = False
        self._columns = (self._stamp, columns)
        return columns

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in _STORE_SLOTS}

    def __setstate__(self, state) -> None:
        for slot in _STORE_SLOTS:
            setattr(self, slot, state[slot])
        self._views = None
        self._columns = None
        self._stamp = 0


#: ``(branches, mispredictions)`` counts indexed by exact distance.
Histogram = Tuple[Tuple[int, ...], Tuple[int, ...]]


def distance_histogram(distance: np.ndarray, flags: np.ndarray) -> Histogram:
    """Branches, and ``flags``-marked branches, at each exact distance.

    Both tuples run to the largest distance present (empty for no
    branches); nothing is clamped, so any tail bucket can be cut later.
    """
    branches = np.bincount(distance)
    flagged = np.bincount(distance[flags], minlength=len(branches))
    return tuple(branches.tolist()), tuple(flagged.tolist())


@dataclass(frozen=True)
class DistanceCounts:
    """Per-distance counts of one pipeline run (Figures 6-9's input).

    One :data:`Histogram` each for precise and perceived distance, over
    every fetched branch and over committed branches only.  Committed
    precise distances are recounted inside the committed sub-stream, in
    committed branches, as a trace-based analysis counts them;
    perceived distances are taken as recorded.  The size grows with the
    largest distance, not with the run's length.  A run counts them as
    it goes (:meth:`DistanceTally.counts`); :meth:`from_store` recounts
    them from a reference-engine log, the tests' oracle.
    """

    precise_all: Histogram
    precise_committed: Histogram
    perceived_all: Histogram
    perceived_committed: Histogram

    @classmethod
    def from_store(cls, store: BranchRecordStore) -> DistanceCounts:
        # imported here: repro.engine's tracer imports this package, so
        # a module-level import would be circular
        from ..engine import branches_since_flagged

        precise, perceived, mispredicted, committed = store.distance_columns()
        committed_flags = mispredicted[committed]
        return cls(
            precise_all=distance_histogram(precise, mispredicted),
            precise_committed=distance_histogram(
                branches_since_flagged(committed_flags), committed_flags
            ),
            perceived_all=distance_histogram(perceived, mispredicted),
            perceived_committed=distance_histogram(
                perceived[committed], committed_flags
            ),
        )


#: ``(branches, mispredictions)`` count lists indexed by exact distance.
CountLists = Tuple[List[int], List[int]]


def grow_counts(counts: CountLists, distance: int) -> int:
    """Extend both lists of ``counts`` with zeros up to index
    ``distance``; return their new length."""
    branches, mispredictions = counts
    zeros = [0] * (distance + 1 - len(branches))
    branches.extend(zeros)
    mispredictions.extend(zeros)
    return distance + 1


def _count(counts: CountLists, distance: int, mispredicted: bool) -> None:
    branches, mispredictions = counts
    if distance >= len(branches):
        grow_counts(counts, distance)
    branches[distance] += 1
    if mispredicted:
        mispredictions[distance] += 1


class DistanceTally:
    """The four histograms of :class:`DistanceCounts`, counted as a run
    goes.

    Each field is a :data:`CountLists` pair that grows only when a
    larger distance shows up, so :meth:`counts` equals
    :meth:`DistanceCounts.from_store` over the same branches
    (``np.bincount`` also runs to the largest distance).  Both engines
    count here: the reference one through :meth:`fetch` and
    :meth:`commit`, the fused one with these lists in locals.
    """

    __slots__ = (
        "precise_all",
        "precise_committed",
        "perceived_all",
        "perceived_committed",
        "committed_run",
    )

    def __init__(self):
        self.precise_all: CountLists = ([], [])
        self.precise_committed: CountLists = ([], [])
        self.perceived_all: CountLists = ([], [])
        self.perceived_committed: CountLists = ([], [])
        #: Committed branches since the last committed misprediction:
        #: the precise distance recounted in the committed sub-stream
        #: (the recurrence ``branches_since_flagged`` vectorises).
        self.committed_run = 0

    def fetch(self, precise: int, perceived: int, mispredicted: bool) -> None:
        """Count a fetched branch at its precise and perceived distance."""
        _count(self.precise_all, precise, mispredicted)
        _count(self.perceived_all, perceived, mispredicted)

    def commit(self, perceived: int, mispredicted: bool) -> None:
        """Count a committed branch at the perceived distance it was
        fetched with and at the committed-precise counter."""
        _count(self.perceived_committed, perceived, mispredicted)
        _count(self.precise_committed, self.committed_run, mispredicted)
        self.committed_run = 0 if mispredicted else self.committed_run + 1

    def counts(self) -> DistanceCounts:
        """The histograms so far, as exact tuples."""

        def histogram(counts: CountLists) -> Histogram:
            return tuple(counts[0]), tuple(counts[1])

        return DistanceCounts(
            precise_all=histogram(self.precise_all),
            precise_committed=histogram(self.precise_committed),
            perceived_all=histogram(self.perceived_all),
            perceived_committed=histogram(self.perceived_committed),
        )


@dataclass
class PipelineStats:
    """Aggregate counters of one pipeline run (Table 1 inputs)."""

    cycles: int = 0
    fetched_instructions: int = 0
    committed_instructions: int = 0
    squashed_instructions: int = 0
    fetched_branches: int = 0
    committed_branches: int = 0
    committed_mispredictions: int = 0
    fetched_mispredictions: int = 0
    icache_misses: int = 0
    dcache_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # Each ratio is ``None``, not a made-up 0.0, when its denominator
    # is empty, so an empty run renders as ``n/a``.

    def fetch_to_commit_ratio_or_none(self) -> Optional[float]:
        """The paper's "all/committed" instruction ratio (>= 1), or
        ``None`` if nothing committed."""
        if not self.committed_instructions:
            return None
        return self.fetched_instructions / self.committed_instructions

    def committed_accuracy_or_none(self) -> Optional[float]:
        """Committed-branch accuracy, or ``None`` with no such branches."""
        if not self.committed_branches:
            return None
        return 1.0 - self.committed_mispredictions / self.committed_branches

    def all_accuracy_or_none(self) -> Optional[float]:
        """All-fetched-branch accuracy, or ``None`` with no branches."""
        if not self.fetched_branches:
            return None
        return 1.0 - self.fetched_mispredictions / self.fetched_branches

    def ipc_or_none(self) -> Optional[float]:
        """Committed IPC, or ``None`` for a run that saw no cycles."""
        if not self.cycles:
            return None
        return self.committed_instructions / self.cycles
