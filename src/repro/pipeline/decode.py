"""Pre-decoded program layout for the pipeline fast path and the tracer.

The pipeline's per-instruction loop pays, for every fetched
instruction, an :class:`~repro.isa.instructions.Instruction` attribute
walk, an :class:`~repro.isa.instructions.OpCategory` dispatch (enum
hashing included) and a frozen-dataclass ``StepResult`` allocation
inside :meth:`~repro.isa.machine.Machine.step`.  None of that work
depends on anything but the program text, so this module performs it
**once per program**:

* every PC is classified into a small integer *kind* (plain ALU work,
  load, store, conditional branch, jump, jump-register, halt),
* operand fields (``rd``/``rs1``/``rs2``/``imm``) are unpacked into
  flat per-PC lists,
* ``run_len[pc]`` holds the length of the straight-line *plain* run
  (no memory, no control flow, no halt) starting at ``pc`` -- the
  basic-block prefix the fused pipeline engine steps in one tight loop,
* per-PC execution closures are specialised per opcode with their
  operands bound (``plain_ops`` mutate the register file directly;
  ``branch_ops`` evaluate the branch condition), eliminating the
  category dispatch and the ``evaluate_alu``/``branch_taken`` if-chains
  from the hot loop.  The closures are interned per process: a plain
  instruction or branch that recurs, at another PC or in another
  program, reuses its closure,
* the out-of-order backend's per-PC operand table
  (:meth:`DecodedProgram.operand_table`) is derived from the same
  arrays, so every out-of-order simulator of a program shares one.

Two loops step this layout: the pipeline's fused engine
(:mod:`repro.pipeline.core`) and the functional tracer
(:func:`repro.engine.tracer.trace_branches`).

Decoding is cheap next to a pipeline run, so it is never written to
the artifact cache: :func:`decoded_run` memoises one instance per
workload in process, and the workload's trace and every simulator of
it, whatever its backend, share it.  The packed arrays are picklable
because segment snapshots pickle the simulator together with its
decoded program; the closures are process-local, so an unpickled
instance rebuilds them, and its operand tables, lazily from the arrays.

Executing a plain closure is **exactly** ``Machine.step`` minus the
bookkeeping the caller batches (``pc`` advance and
``instructions_retired``), provided every register holds a 32-bit
masked value.  ALU results are masked, and loads copy data words that
:class:`~repro.isa.program.Program` requires to lie in ``[0, 2**32)``
(stores mask on the way in), so the invariant holds and the
specialised bodies, which skip the operand masking, produce
bit-identical results to ``evaluate_alu``/``branch_taken`` -- the
fast/slow byte-identity tests, the tracer equivalence tests and the
CI report gates check this end to end.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.instructions import (
    LINK_REG,
    SIGN_BIT,
    WORD_MASK,
    Instruction,
    OpCategory,
    Opcode,
)
from ..isa.program import Program

#: Instruction kinds the fused pipeline loop dispatches on.
K_PLAIN = 0  # ALU_RRR / ALU_RRI / LUI / NOP: straight-line, no memory
K_LOAD = 1
K_STORE = 2
K_BRANCH = 3
K_JUMP = 4  # j
K_JAL = 5  # jal (writes the link register)
K_JR = 6
K_HALT = 7

_TWO_POW_32 = 1 << 32

#: Slots that survive pickling (the closure tables do not).
_STATE_SLOTS = (
    "length",
    "kinds",
    "run_len",
    "rd",
    "rs1",
    "rs2",
    "imm",
    "opcode_names",
)


@lru_cache(maxsize=None)
def _plain_op(
    opcode: Opcode, rd: int, rs1: int, rs2: int, imm: int
) -> Optional[Callable]:
    """Specialised executor for one plain instruction (``None`` = no-op).

    Writes to ``r0`` are architectural no-ops (``Machine.step`` skips
    them), as is ``nop`` itself, so those PCs compile to ``None``.
    """
    if opcode is Opcode.NOP or rd == 0:
        return None
    mask = WORD_MASK
    sign = SIGN_BIT
    if opcode is Opcode.ADD:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = (regs[a] + regs[b]) & mask

    elif opcode is Opcode.SUB:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = (regs[a] - regs[b]) & mask

    elif opcode is Opcode.MUL:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = (regs[a] * regs[b]) & mask

    elif opcode is Opcode.AND:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = regs[a] & regs[b]

    elif opcode is Opcode.OR:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = regs[a] | regs[b]

    elif opcode is Opcode.XOR:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = regs[a] ^ regs[b]

    elif opcode is Opcode.SLL:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = (regs[a] << (regs[b] & 31)) & mask

    elif opcode is Opcode.SRL:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = regs[a] >> (regs[b] & 31)

    elif opcode is Opcode.SRA:

        def op(regs, rd=rd, a=rs1, b=rs2):
            value = regs[a]
            if value & sign:
                value -= _TWO_POW_32
            regs[rd] = (value >> (regs[b] & 31)) & mask

    elif opcode is Opcode.SLT:

        def op(regs, rd=rd, a=rs1, b=rs2):
            left = regs[a]
            right = regs[b]
            if left & sign:
                left -= _TWO_POW_32
            if right & sign:
                right -= _TWO_POW_32
            regs[rd] = 1 if left < right else 0

    elif opcode is Opcode.SLTU:

        def op(regs, rd=rd, a=rs1, b=rs2):
            regs[rd] = 1 if regs[a] < regs[b] else 0

    elif opcode is Opcode.ADDI:
        value = imm & mask

        def op(regs, rd=rd, a=rs1, b=value):
            regs[rd] = (regs[a] + b) & mask

    elif opcode is Opcode.ANDI:
        value = imm & mask

        def op(regs, rd=rd, a=rs1, b=value):
            regs[rd] = regs[a] & b

    elif opcode is Opcode.ORI:
        value = imm & mask

        def op(regs, rd=rd, a=rs1, b=value):
            regs[rd] = regs[a] | b

    elif opcode is Opcode.XORI:
        value = imm & mask

        def op(regs, rd=rd, a=rs1, b=value):
            regs[rd] = regs[a] ^ b

    elif opcode is Opcode.SLLI:
        shift = (imm & mask) & 31

        def op(regs, rd=rd, a=rs1, b=shift):
            regs[rd] = (regs[a] << b) & mask

    elif opcode is Opcode.SRLI:
        shift = (imm & mask) & 31

        def op(regs, rd=rd, a=rs1, b=shift):
            regs[rd] = regs[a] >> b

    elif opcode is Opcode.SRAI:
        shift = (imm & mask) & 31

        def op(regs, rd=rd, a=rs1, b=shift):
            value = regs[a]
            if value & sign:
                value -= _TWO_POW_32
            regs[rd] = (value >> b) & mask

    elif opcode is Opcode.SLTI:
        right = imm & mask
        if right & sign:
            right -= _TWO_POW_32

        def op(regs, rd=rd, a=rs1, b=right):
            left = regs[a]
            if left & sign:
                left -= _TWO_POW_32
            regs[rd] = 1 if left < b else 0

    elif opcode is Opcode.LUI:
        value = (imm << 16) & mask

        def op(regs, rd=rd, b=value):
            regs[rd] = b

    else:  # pragma: no cover - decode_program never routes others here
        raise ValueError(f"{opcode} is not a plain opcode")
    return op


@lru_cache(maxsize=None)
def _branch_op(opcode: Opcode, rs1: int, rs2: int) -> Callable:
    """Specialised condition evaluator for one conditional branch."""
    sign = SIGN_BIT
    if opcode is Opcode.BEQ:

        def op(regs, a=rs1, b=rs2):
            return regs[a] == regs[b]

    elif opcode is Opcode.BNE:

        def op(regs, a=rs1, b=rs2):
            return regs[a] != regs[b]

    elif opcode is Opcode.BLT:

        def op(regs, a=rs1, b=rs2):
            left = regs[a]
            right = regs[b]
            if left & sign:
                left -= _TWO_POW_32
            if right & sign:
                right -= _TWO_POW_32
            return left < right

    elif opcode is Opcode.BGE:

        def op(regs, a=rs1, b=rs2):
            left = regs[a]
            right = regs[b]
            if left & sign:
                left -= _TWO_POW_32
            if right & sign:
                right -= _TWO_POW_32
            return left >= right

    else:  # pragma: no cover - decode_program never routes others here
        raise ValueError(f"{opcode} is not a conditional branch")
    return op


_KIND_BY_CATEGORY = {
    OpCategory.ALU_RRR: K_PLAIN,
    OpCategory.ALU_RRI: K_PLAIN,
    OpCategory.LUI: K_PLAIN,
    OpCategory.LOAD: K_LOAD,
    OpCategory.STORE: K_STORE,
    OpCategory.BRANCH: K_BRANCH,
    OpCategory.JUMP_REGISTER: K_JR,
}


#: Per category: (register sources read -- none, ``rs1``, or ``rs1``
#: and ``rs2`` -- and whether ``rd`` is written).  ``jal``'s link write
#: comes from its kind.
_CATEGORY_REGISTERS = {
    OpCategory.ALU_RRR: (2, True),
    OpCategory.ALU_RRI: (1, True),
    OpCategory.LUI: (0, True),
    OpCategory.LOAD: (1, True),
    OpCategory.STORE: (2, False),
    OpCategory.BRANCH: (2, False),
    OpCategory.JUMP: (0, False),
    OpCategory.JUMP_REGISTER: (1, False),
    OpCategory.SYSTEM: (0, False),
}
_REGISTER_USE = {
    opcode.value: _CATEGORY_REGISTERS[opcode.category] for opcode in Opcode
}

#: One row of :meth:`DecodedProgram.operand_table`.
OperandRow = Tuple[Tuple[int, ...], int, int]


def _instruction_kind(instruction: Instruction) -> int:
    opcode = instruction.opcode
    category = opcode.category
    if category is OpCategory.JUMP:
        return K_JAL if opcode is Opcode.JAL else K_JUMP
    if category is OpCategory.SYSTEM:
        return K_HALT if opcode is Opcode.HALT else K_PLAIN
    return _KIND_BY_CATEGORY[category]


class DecodedProgram:
    """One program's instructions as packed per-PC arrays + closures."""

    __slots__ = _STATE_SLOTS + ("_plain_ops", "_branch_ops", "_operand_tables")

    def __init__(
        self,
        length: int,
        kinds: List[int],
        run_len: List[int],
        rd: List[int],
        rs1: List[int],
        rs2: List[int],
        imm: List[int],
        opcode_names: List[str],
    ):
        self.length = length
        self.kinds = kinds
        self.run_len = run_len
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.opcode_names = opcode_names
        self._plain_ops: Optional[List[Optional[Callable]]] = None
        self._branch_ops: Optional[List[Optional[Callable]]] = None
        self._operand_tables: Optional[Dict[int, List[OperandRow]]] = None

    @property
    def plain_ops(self) -> List[Optional[Callable]]:
        """Per-PC executors for plain instructions (lazily rebuilt)."""
        ops = self._plain_ops
        if ops is None:
            ops = [
                _plain_op(
                    Opcode(self.opcode_names[pc]),
                    self.rd[pc],
                    self.rs1[pc],
                    self.rs2[pc],
                    self.imm[pc],
                )
                if self.kinds[pc] == K_PLAIN
                else None
                for pc in range(self.length)
            ]
            self._plain_ops = ops
        return ops

    @property
    def branch_ops(self) -> List[Optional[Callable]]:
        """Per-PC condition evaluators for branches (lazily rebuilt)."""
        ops = self._branch_ops
        if ops is None:
            ops = [
                _branch_op(
                    Opcode(self.opcode_names[pc]), self.rs1[pc], self.rs2[pc]
                )
                if self.kinds[pc] == K_BRANCH
                else None
                for pc in range(self.length)
            ]
            self._branch_ops = ops
        return ops

    def operand_table(self, memory_latency: int) -> List[OperandRow]:
        """Per-PC ``(sources without r0, destination or -1, latency)``.

        The out-of-order backend's rename input, built once per
        ``memory_latency`` (its D-cache hit latency) and shared by every
        simulator of the program.  ``r0`` reads are always ready and
        ``r0`` writes are discarded, so neither appears; loads and
        stores take ``memory_latency`` cycles, everything else one.
        Equal rows are one tuple.
        """
        tables = self._operand_tables
        if tables is None:
            tables = self._operand_tables = {}
        table = tables.get(memory_latency)
        if table is not None:
            return table
        rows: Dict[OperandRow, OperandRow] = {}
        table = []
        for name, kind, rd, rs1, rs2 in zip(
            self.opcode_names, self.kinds, self.rd, self.rs1, self.rs2
        ):
            count, writes_rd = _REGISTER_USE[name]
            sources = (rs1, rs2)[:count]
            if 0 in sources:
                sources = tuple([reg for reg in sources if reg])
            if kind == K_JAL:
                dest = LINK_REG
            else:
                dest = rd if writes_rd and rd else -1
            latency = memory_latency if kind == K_LOAD or kind == K_STORE else 1
            row = (sources, dest, latency)
            table.append(rows.setdefault(row, row))
        tables[memory_latency] = table
        return table

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in _STATE_SLOTS}

    def __setstate__(self, state) -> None:
        for slot in _STATE_SLOTS:
            setattr(self, slot, state[slot])
        self._plain_ops = None
        self._branch_ops = None
        self._operand_tables = None


def decode_program(program: Program) -> DecodedProgram:
    """Pre-decode ``program`` into a :class:`DecodedProgram`."""
    instructions = program.instructions
    length = len(instructions)
    kinds = [_instruction_kind(instruction) for instruction in instructions]
    run_len = [0] * length
    streak = 0
    for pc in range(length - 1, -1, -1):
        streak = streak + 1 if kinds[pc] == K_PLAIN else 0
        run_len[pc] = streak
    return DecodedProgram(
        length=length,
        kinds=kinds,
        run_len=run_len,
        rd=[instruction.rd for instruction in instructions],
        rs1=[instruction.rs1 for instruction in instructions],
        rs2=[instruction.rs2 for instruction in instructions],
        imm=[instruction.imm for instruction in instructions],
        opcode_names=[instruction.opcode.value for instruction in instructions],
    )


@lru_cache(maxsize=64)
def decoded_run(name: str, iterations: Optional[int] = None) -> DecodedProgram:
    """The pre-decoded form of workload ``name``'s program.

    Memoised in process, so the workload's tracer run and every
    simulator of it share one instance and its closure tables; the
    decode itself is not persisted.
    """
    # imported here: the corpus imports the tracer, which imports this
    # module, so a module-level import would be circular
    from ..engine.corpus import workload_program

    return decode_program(workload_program(name, iterations))


def clear_decoded_cache() -> None:
    """Drop memoised decoded programs (tests and long-lived processes)."""
    decoded_run.cache_clear()
