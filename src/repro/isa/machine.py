"""Functional simulator for the mini RISC ISA.

:class:`Machine` executes one instruction at a time and is the *golden
reference* for architectural state: the speculative pipeline in
:mod:`repro.pipeline` must commit exactly the instruction stream this
machine produces (an invariant checked by the integration tests).

The machine supports **journaled speculation**: callers may take a
:meth:`Machine.snapshot` before executing down a predicted path and
:meth:`Machine.restore` it when the prediction turns out wrong.  Memory
writes are undo-logged, so snapshots are O(register file) and restores
are O(wrong-path stores), which keeps pipeline simulation fast even
though wrong paths execute real instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .instructions import (
    LINK_REG,
    NUM_REGISTERS,
    WORD_MASK,
    Instruction,
    OpCategory,
    Opcode,
    branch_taken,
    evaluate_alu,
)
from .program import Program


class MachineFault(RuntimeError):
    """Raised when execution leaves the program image.

    On the correct path this indicates a broken program.  On a wrong
    (speculative) path it is an expected event -- real hardware would
    fetch garbage; the pipeline model treats the faulting path as
    stalled until the misprediction that led there is repaired.
    """


class _MissingSentinel:
    """Undo-log marker for "address was unmapped before this store".

    A plain ``object()`` would lose its identity across pickling, and
    :meth:`Machine.restore` compares with ``is`` -- so a machine that
    went through a snapshot/pickle round trip (pipeline segment
    checkpoints) would silently stop unmapping addresses on rollback.
    ``__reduce__`` pins every unpickle to the module-level singleton.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<missing>"

    def __reduce__(self):
        return (_missing_sentinel, ())


_MISSING = _MissingSentinel()


def _missing_sentinel() -> "_MissingSentinel":
    return _MISSING


@dataclass(frozen=True)
class StepResult:
    """Outcome of executing a single instruction."""

    pc: int
    instruction: Instruction
    next_pc: int
    #: For conditional branches: the evaluated direction, else ``None``.
    taken: Optional[bool] = None
    halted: bool = False

    @property
    def is_conditional_branch(self) -> bool:
        return self.taken is not None


class Machine:
    """Architectural state plus a single-instruction executor."""

    def __init__(self, program: Program):
        self.program = program
        self.regs: List[int] = [0] * NUM_REGISTERS
        self.memory: Dict[int, int] = dict(program.data)
        self.pc: int = program.entry
        self.halted: bool = False
        self.instructions_retired: int = 0
        #: Undo log of (address, previous value or _MISSING) pairs.
        self._journal: List[Tuple[int, object]] = []

    # ------------------------------------------------------------------
    # speculation support
    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple[Tuple[int, ...], int, bool, int, int]:
        """Capture the architectural state for a later :meth:`restore`.

        An opaque plain tuple -- ``(registers, pc, halted, undo-log
        length, instructions retired)`` -- because the pipeline takes
        one per on-path misprediction and a tuple is several times
        cheaper to build than a frozen dataclass.
        """
        return (
            tuple(self.regs),
            self.pc,
            self.halted,
            len(self._journal),
            self.instructions_retired,
        )

    def restore(self, snap: Tuple[Tuple[int, ...], int, bool, int, int]) -> None:
        """Roll architectural state back to ``snap``.

        Any snapshot taken *after* ``snap`` becomes invalid.
        """
        regs, pc, halted, journal_length, instructions_retired = snap
        journal = self._journal
        if journal_length > len(journal):
            raise ValueError("snapshot is newer than current state")
        memory = self.memory
        while len(journal) > journal_length:
            address, old = journal.pop()
            if old is _MISSING:
                memory.pop(address, None)
            else:
                memory[address] = old
        self.regs = list(regs)
        self.pc = pc
        self.halted = halted
        self.instructions_retired = instructions_retired

    def trim_journal(self) -> None:
        """Discard the undo log (valid once no snapshots are live)."""
        self._journal.clear()

    @property
    def journal_length(self) -> int:
        return len(self._journal)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def store_word(self, address: int, value: int) -> None:
        """Journaled memory write used by ``sw`` (and tests)."""
        memory = self.memory
        self._journal.append((address, memory.get(address, _MISSING)))
        memory[address] = value & WORD_MASK

    def load_word(self, address: int) -> int:
        """Memory read; unmapped addresses read as zero.

        Reading zeros for unmapped addresses makes wrong-path loads
        well-defined, mirroring hardware that returns whatever the
        memory system holds.
        """
        return self.memory.get(address, 0)

    def step(self) -> StepResult:
        """Execute the instruction at ``pc`` and advance state."""
        if self.halted:
            raise MachineFault("machine is halted")
        pc = self.pc
        try:
            inst = self.program.instructions[pc]
        except IndexError:
            raise MachineFault(f"fetch outside program at pc={pc}") from None
        opcode = inst.opcode
        category = opcode.category
        regs = self.regs
        next_pc = pc + 1
        taken: Optional[bool] = None
        halted = False

        if category is OpCategory.ALU_RRR:
            if inst.rd:
                regs[inst.rd] = evaluate_alu(opcode, regs[inst.rs1], regs[inst.rs2])
        elif category is OpCategory.ALU_RRI:
            if inst.rd:
                regs[inst.rd] = evaluate_alu(
                    opcode, regs[inst.rs1], inst.imm & WORD_MASK
                )
        elif category is OpCategory.LUI:
            if inst.rd:
                regs[inst.rd] = (inst.imm << 16) & WORD_MASK
        elif category is OpCategory.LOAD:
            if inst.rd:
                regs[inst.rd] = self.load_word((regs[inst.rs1] + inst.imm) & WORD_MASK)
        elif category is OpCategory.STORE:
            self.store_word((regs[inst.rs1] + inst.imm) & WORD_MASK, regs[inst.rs2])
        elif category is OpCategory.BRANCH:
            taken = branch_taken(opcode, regs[inst.rs1], regs[inst.rs2])
            if taken:
                next_pc = inst.imm
        elif category is OpCategory.JUMP:
            if opcode is Opcode.JAL:
                regs[LINK_REG] = next_pc
            next_pc = inst.imm
        elif category is OpCategory.JUMP_REGISTER:
            next_pc = regs[inst.rs1]
        else:  # SYSTEM
            if opcode is Opcode.HALT:
                halted = True
                self.halted = True

        self.pc = next_pc
        self.instructions_retired += 1
        return StepResult(
            pc=pc, instruction=inst, next_pc=next_pc, taken=taken, halted=halted
        )

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run until ``halt`` or ``max_steps``; return instructions retired."""
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        return steps
