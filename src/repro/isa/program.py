"""Assembled program image: code, initial data and symbol table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .instructions import WORD_MASK, Instruction


@dataclass
class Program:
    """A fully linked program ready to run on the machine.

    Addresses are *instruction indices* for code and *word addresses*
    for data; the machine keeps code and data in separate spaces
    (a Harvard layout), which keeps the pipeline's instruction cache
    model independent of the data cache.
    """

    instructions: List[Instruction]
    #: Initial data memory image: word address -> 32-bit value.
    data: Dict[int, int] = field(default_factory=dict)
    #: Symbol table: label -> instruction index (code) or word address (data).
    labels: Dict[str, int] = field(default_factory=dict)
    entry: int = 0
    name: str = "program"

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a program must contain at least one instruction")
        if not 0 <= self.entry < len(self.instructions):
            raise ValueError(f"entry point {self.entry} outside program")
        # registers hold masked 32-bit values (the pre-decoded closures
        # rely on it), and loads copy data words into registers unmasked
        for address, value in self.data.items():
            if not 0 <= value <= WORD_MASK:
                raise ValueError(
                    f"data word {value} at address {address} is not a 32-bit value"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at instruction index ``pc``.

        Raises :class:`IndexError` for out-of-range fetches; the
        speculative pipeline catches this to model wrong-path fetches
        that run off the end of the code segment.
        """
        if pc < 0 or pc >= len(self.instructions):
            raise IndexError(f"instruction fetch outside program: pc={pc}")
        return self.instructions[pc]

    def static_branch_sites(self) -> List[int]:
        """Instruction indices of all conditional branches in the image."""
        return [
            pc
            for pc, inst in enumerate(self.instructions)
            if inst.is_conditional_branch
        ]

    def listing(self, limit: int = None) -> str:
        """Human-readable disassembly listing (for debugging/examples)."""
        index_to_label: Dict[int, List[str]] = {}
        for label, addr in self.labels.items():
            index_to_label.setdefault(addr, []).append(label)
        lines: List[str] = []
        body: Sequence[Instruction] = self.instructions
        if limit is not None:
            body = body[:limit]
        for pc, inst in enumerate(body):
            for label in sorted(index_to_label.get(pc, ())):
                lines.append(f"{label}:")
            lines.append(f"  {pc:6d}: {inst}")
        if limit is not None and limit < len(self.instructions):
            lines.append(f"  ... ({len(self.instructions) - limit} more)")
        return "\n".join(lines)
