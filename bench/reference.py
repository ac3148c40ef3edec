"""Committed reference outputs and the per-experiment output check.

A reference file holds the ``to_text()`` block of every experiment of
one workload under one seed, as printed by a deterministic
``render_report(..., clock=fixed, performance=False)``; each block
follows a ``==> <experiment id> <==`` header line.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from suite import BENCH_DIR

REFERENCE_DIR = BENCH_DIR / "reference"
_HEADER = re.compile(r"^==> (\S+) <==\n", re.MULTILINE)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.txt"


def format_blocks(blocks: Mapping[str, str]) -> str:
    return "".join(f"==> {eid} <==\n{text}\n" for eid, text in blocks.items())


def parse_blocks(text: str) -> Dict[str, str]:
    parts = _HEADER.split(text)
    # parts = [preamble, id1, body1, id2, body2, ...]; bodies end "\n"
    return {eid: body[:-1] for eid, body in zip(parts[1::2], parts[2::2])}


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The committed blocks for ``(workload, seed)``, or None if unverified."""
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return parse_blocks(path.read_text(encoding="utf-8"))


def failed_experiments(
    experiments: Sequence[str],
    blocks: Optional[Mapping[str, Optional[str]]],
    expected: Optional[Mapping[str, str]],
) -> List[str]:
    """Experiments whose output is missing, raised, or differs from ``expected``.

    ``blocks`` is None when the invocation exited non-zero: every
    experiment counts as failed.  A block of None means the experiment
    raised.  With ``expected`` None (no reference for this seed) only
    missing and raised experiments fail.
    """
    if blocks is None:
        return list(experiments)
    return [
        eid
        for eid in experiments
        if blocks.get(eid) is None
        or (expected is not None and blocks[eid] != expected.get(eid))
    ]
