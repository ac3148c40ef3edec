"""Fast functional tracer: program -> committed branch stream.

The trace-driven experiments (Tables 2-4, Figures 3-5) only need the
committed conditional-branch stream, which is independent of any
predictor.  :func:`trace_branches` produces it by stepping the
:class:`~repro.pipeline.decode.DecodedProgram` the pipeline fast path
runs, so no opcode category is dispatched per executed instruction;
that matters because the experiment harness replays every workload
under many predictor/estimator configurations.

Equivalence with the golden :class:`~repro.isa.Machine` semantics is
enforced by an integration test over every workload profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..isa import Program
from ..isa.instructions import LINK_REG, WORD_MASK
from ..isa.machine import MachineFault
from ..pipeline.decode import (
    K_BRANCH,
    K_JAL,
    K_JR,
    K_JUMP,
    K_LOAD,
    K_STORE,
    DecodedProgram,
    decode_program,
)
from ..workloads.trace import BranchTrace


@dataclass(frozen=True)
class TraceRunStats:
    """Execution statistics of one tracer run."""

    instructions: int
    branches: int
    taken_branches: int
    halted: bool

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.instructions if self.instructions else 0.0


def trace_branches(
    program: Program,
    max_steps: int = 50_000_000,
    max_branches: Optional[int] = None,
    decoded: Optional[DecodedProgram] = None,
) -> "TracedRun":
    """Execute ``program`` to completion; record its branch stream.

    ``decoded`` may supply ``program``'s shared
    :class:`~repro.pipeline.decode.DecodedProgram` (e.g. the
    per-workload :func:`~repro.pipeline.decode.decoded_run` memo the
    pipeline also reads) to skip the decode.
    """
    if decoded is None:
        decoded = decode_program(program)
    kinds = decoded.kinds
    run_len = decoded.run_len
    plain_ops = decoded.plain_ops
    branch_ops = decoded.branch_ops
    rds = decoded.rd
    rs1s = decoded.rs1
    rs2s = decoded.rs2
    imms = decoded.imm
    code_length = decoded.length
    regs = [0] * 32
    memory: Dict[int, int] = dict(program.data)
    pc = program.entry

    trace = BranchTrace.empty(program.name)
    push_pc = trace.pcs.append
    push_outcome = trace.outcomes.append

    steps = 0
    branches = 0
    taken_branches = 0
    halted = False
    while steps < max_steps:
        if pc < 0 or pc >= code_length:
            raise MachineFault(f"fetch outside program at pc={pc}")
        run = run_len[pc]
        if run:
            # straight-line plain run, cut short at max_steps
            if run > max_steps - steps:
                run = max_steps - steps
            end = pc + run
            index = pc
            while index < end:
                op = plain_ops[index]
                if op is not None:
                    op(regs)
                index += 1
            steps += run
            pc = end
            continue
        steps += 1
        kind = kinds[pc]
        if kind == K_BRANCH:
            taken = branch_ops[pc](regs)
            push_pc(pc)
            push_outcome(1 if taken else 0)
            branches += 1
            if taken:
                taken_branches += 1
                pc = imms[pc]
            else:
                pc += 1
            if max_branches is not None and branches >= max_branches:
                break
        elif kind == K_LOAD:
            if rds[pc]:
                regs[rds[pc]] = memory.get((regs[rs1s[pc]] + imms[pc]) & WORD_MASK, 0)
            pc += 1
        elif kind == K_STORE:
            memory[(regs[rs1s[pc]] + imms[pc]) & WORD_MASK] = regs[rs2s[pc]]
            pc += 1
        elif kind == K_JUMP:
            pc = imms[pc]
        elif kind == K_JAL:
            regs[LINK_REG] = pc + 1
            pc = imms[pc]
        elif kind == K_JR:
            pc = regs[rs1s[pc]]
        else:  # K_HALT
            halted = True
            break

    stats = TraceRunStats(
        instructions=steps,
        branches=branches,
        taken_branches=taken_branches,
        halted=halted,
    )
    return TracedRun(trace=trace, stats=stats)


@dataclass(frozen=True)
class TracedRun:
    """A branch trace together with its run statistics."""

    trace: BranchTrace
    stats: TraceRunStats
