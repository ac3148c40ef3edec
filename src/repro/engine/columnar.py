"""Columnar branch-trace representation (the vector engine's substrate).

A :class:`~repro.workloads.trace.BranchTrace` stores one python object
pair per dynamic branch; replaying it through the measurement engine
costs a python-level loop iteration per branch.  This module lowers a
trace once into packed numpy columns -- pc / taken / branch target /
site index -- so the vectorized kernels in :mod:`repro.engine.vector`
can process whole workloads as array scans.

The lowering is cached as a first-class artifact kind
(``trace-columnar``) in :mod:`repro.engine.cache`, keyed exactly like
the ``trace`` artifact it derives from, so the DAG scheduler warms it
once per workload and every consumer (estimator bank, sweeps,
clustering, static profiling) shares the same arrays.

A :class:`ColumnarTrace` additionally carries two in-process memo
dictionaries (predictor passes and estimator flag columns, managed by
:mod:`repro.engine.vector`).  They are deliberately excluded from
pickling: a cache-loaded instance starts with empty memos.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

#: Slots that survive pickling (the two trailing memo dicts do not).
_STATE_SLOTS = ("name", "pcs", "taken", "targets", "sites", "site_index")


class ColumnarTrace:
    """One workload's branch stream as packed numpy columns.

    Attributes
    ----------
    pcs:
        ``int64[n]`` instruction index of each dynamic branch.
    taken:
        ``bool[n]`` actual direction of each dynamic branch.
    targets:
        ``int64[len(sites)]`` taken-target instruction index per static
        site (``-1`` when unknown -- e.g. the lowering had no program).
    sites:
        ``int64[s]`` sorted distinct static branch sites.
    site_index:
        ``int64[n]`` index into ``sites`` per dynamic branch.
    """

    __slots__ = _STATE_SLOTS + ("_predict_memo", "_flag_memo")

    def __init__(self, name, pcs, taken, targets, sites, site_index):
        self.name = name
        self.pcs = pcs
        self.taken = taken
        self.targets = targets
        self.sites = sites
        self.site_index = site_index
        self._predict_memo = {}
        self._flag_memo = {}

    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        """Iterate as ``(pc, taken)`` pairs (scalar-engine compatible)."""
        return zip(self.pcs.tolist(), self.taken.tolist())

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in _STATE_SLOTS}

    def __setstate__(self, state) -> None:
        for slot in _STATE_SLOTS:
            setattr(self, slot, state[slot])
        self._predict_memo = {}
        self._flag_memo = {}


def lower_trace(trace, program=None, name: Optional[str] = None) -> ColumnarTrace:
    """Lower a :class:`BranchTrace` into a :class:`ColumnarTrace`.

    ``program`` (the traced :class:`~repro.isa.Program`) supplies the
    per-site taken targets; without it targets are ``-1``.  The input
    trace is copied -- mutating it afterwards cannot corrupt the
    columns.
    """
    pcs = np.asarray(trace.pcs, dtype=np.int64)
    taken = np.frombuffer(bytes(trace.outcomes), dtype=np.uint8).astype(bool)
    if pcs.shape[0] != taken.shape[0]:
        raise ValueError("trace pcs and outcomes length mismatch")
    sites, site_index = np.unique(pcs, return_inverse=True)
    targets = np.full(sites.shape[0], -1, dtype=np.int64)
    if program is not None:
        from ..isa import OpCategory

        instructions = program.instructions
        for position, pc in enumerate(sites.tolist()):
            if 0 <= pc < len(instructions):
                instruction = instructions[pc]
                if instruction.opcode.category is OpCategory.BRANCH:
                    targets[position] = instruction.imm
    return ColumnarTrace(
        name=name or getattr(trace, "name", "trace"),
        pcs=pcs,
        taken=taken,
        targets=targets,
        sites=sites,
        site_index=site_index.astype(np.int64),
    )


@lru_cache(maxsize=64)
def columnar_run(name: str, iterations: Optional[int] = None) -> ColumnarTrace:
    """The columnar form of workload ``name``'s committed branch stream.

    Memoised in process (so all consumers share one instance and its
    kernel memos) and persisted in the artifact cache as kind
    ``trace-columnar``, keyed like the ``trace`` artifact it lowers.
    """
    # imported here: corpus -> measure -> vector -> columnar at package
    # init time, so a module-level import would be circular
    from .cache import get_cache
    from .corpus import profile_fingerprint, workload_program, workload_run

    def compute() -> ColumnarTrace:
        run = workload_run(name, iterations)
        return lower_trace(
            run.trace,
            program=workload_program(name, iterations),
            name=name,
        )

    return get_cache().cached(
        "trace-columnar",
        compute,
        workload=name,
        iterations=iterations,
        profile=profile_fingerprint(name),
    )


def clear_columnar_cache() -> None:
    """Drop memoised columnar traces (and their kernel memos)."""
    columnar_run.cache_clear()
