"""Branch-trace container and on-disk format.

The paper's methodology records a "speculative trace": the prediction
and eventual outcome of every conditional branch.  The ground truth
part (branch site, actual direction) is independent of any predictor,
so we capture it once per workload as a :class:`BranchTrace` and replay
it under many predictor/estimator configurations.

Traces can be persisted in a compact binary format (``.rbt``) so that
externally produced traces can be *converted* into this format and fed
to the same measurement machinery (see :func:`convert_text_trace`).
"""

from __future__ import annotations

import gzip
import io
import struct
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, List, Tuple, Union

MAGIC = b"RBT1"
_HEADER = struct.Struct("<4sII")  # magic, record count, flags
_RECORD = struct.Struct("<IB")  # pc (instruction index), taken flag


@dataclass
class BranchTrace:
    """Committed conditional-branch stream of one program run.

    ``pcs[i]`` is the instruction index of the i-th dynamic branch and
    ``outcomes[i]`` is 1 if it was taken.  Stored as compact arrays
    (``array("L")`` items are 8 bytes on 64-bit Linux, outcomes 1):
    a million-branch trace costs ~9 MB.
    """

    pcs: array
    outcomes: bytearray
    name: str = "trace"

    def __post_init__(self) -> None:
        if len(self.pcs) != len(self.outcomes):
            raise ValueError("pcs and outcomes length mismatch")

    @classmethod
    def empty(cls, name: str = "trace") -> "BranchTrace":
        return cls(pcs=array("L"), outcomes=bytearray(), name=name)

    @classmethod
    def from_records(
        cls, records: Iterable[Tuple[int, bool]], name: str = "trace"
    ) -> "BranchTrace":
        trace = cls.empty(name)
        append_pc = trace.pcs.append
        append_outcome = trace.outcomes.append
        for pc, taken in records:
            append_pc(pc)
            append_outcome(1 if taken else 0)
        return trace

    def append(self, pc: int, taken: bool) -> None:
        self.pcs.append(pc)
        self.outcomes.append(1 if taken else 0)

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        outcomes = self.outcomes
        for index, pc in enumerate(self.pcs):
            yield pc, bool(outcomes[index])

    def __getitem__(self, index: int) -> Tuple[int, bool]:
        return self.pcs[index], bool(self.outcomes[index])

    @property
    def taken_count(self) -> int:
        return sum(self.outcomes)

    @property
    def taken_rate(self) -> float:
        return self.taken_count / len(self) if len(self) else 0.0

    def static_sites(self) -> List[int]:
        """Distinct static branch sites appearing in the trace."""
        return sorted(set(self.pcs))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the trace to ``path`` (gzip-compressed iff ``.gz``)."""
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wb") as handle:
            self._write(handle)

    def _write(self, handle: BinaryIO) -> None:
        handle.write(_HEADER.pack(MAGIC, len(self), 0))
        pack = _RECORD.pack
        outcomes = self.outcomes
        buffer = io.BytesIO()
        for index, pc in enumerate(self.pcs):
            buffer.write(pack(pc, outcomes[index]))
        handle.write(buffer.getvalue())

    @classmethod
    def load(cls, path: str, name: Union[str, None] = None) -> "BranchTrace":
        """Read a trace previously written by :meth:`save`."""
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rb") as handle:
            data = handle.read()
        magic, count, __ = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise ValueError(f"{path!r} is not a branch trace (bad magic)")
        expected = _HEADER.size + count * _RECORD.size
        if len(data) < expected:
            raise ValueError(f"{path!r} truncated: {len(data)} < {expected} bytes")
        trace = cls.empty(name or path)
        offset = _HEADER.size
        unpack = _RECORD.unpack_from
        for __ in range(count):
            pc, taken = unpack(data, offset)
            trace.pcs.append(pc)
            trace.outcomes.append(1 if taken else 0)
            offset += _RECORD.size
        return trace


def convert_text_trace(lines: Iterable[str], name: str = "converted") -> BranchTrace:
    """Convert a simple textual trace into a :class:`BranchTrace`.

    Accepts one branch per line: ``<pc> <T|N|1|0>`` with ``#`` comments,
    the common denominator of published trace dumps.  This is the
    conversion hook for users bringing traces from other simulators.
    """
    trace = BranchTrace.empty(name)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected '<pc> <T|N>', got {raw!r}")
        pc_text, outcome_text = parts
        pc = int(pc_text, 0)
        outcome_text = outcome_text.upper()
        if outcome_text in ("T", "1"):
            taken = True
        elif outcome_text in ("N", "0"):
            taken = False
        else:
            raise ValueError(f"line {line_no}: bad outcome {outcome_text!r}")
        trace.append(pc, taken)
    return trace
