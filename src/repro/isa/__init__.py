"""Mini RISC ISA: instruction set, assembler, program image, simulator."""

from .assembler import Assembler, AssemblyError, assemble
from .instructions import (
    Instruction,
    OpCategory,
    Opcode,
    branch_taken,
    evaluate_alu,
    to_signed,
    to_unsigned,
)
from .machine import Machine, MachineFault, StepResult
from .program import Program

__all__ = [
    "Assembler",
    "AssemblyError",
    "assemble",
    "Instruction",
    "OpCategory",
    "Opcode",
    "branch_taken",
    "evaluate_alu",
    "to_signed",
    "to_unsigned",
    "Machine",
    "MachineFault",
    "StepResult",
    "Program",
]
