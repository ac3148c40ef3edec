"""Two-pass assembler for the mini RISC ISA.

The assembler accepts a conventional textual assembly dialect::

    .data
    table:  .word 1, 2, 3, 4          ; labelled words
    buf:    .space 64                 ; 64 zero-initialised words

    .text
    start:  addi r1, r0, 10
    loop:   lw   r2, 0(r3)
            beq  r2, r0, done
            addi r1, r1, -1
            bne  r1, r0, loop
    done:   halt

Comments start with ``;`` or ``#``.  Labels may appear on their own
line.  Branch/jump targets may be labels or literal instruction
indices.  ``la rd, label`` is a pseudo-op that loads a data label's word
address.

The synthetic workload generator emits this dialect, so the whole
workload path (generator -> text -> assembler -> program -> machine) is
exercised exactly as a user porting their own kernels would exercise it.

Every process assembles the same eight workload programs, whose lines
repeat heavily, so pass two parses each distinct instruction line that
names no label once per process: a bounded memo maps the line's text
to its :class:`Instruction`.  A line that names a label (a branch or
jump target, ``la``, a label offset in a memory operand) resolves
against its own program every time, and a line that fails is never
remembered, so it raises with its own line number wherever it
recurs.  Parsed instructions are interned, so equal instructions share
one object across PCs and programs.  A ``.word`` list of numbers is
parsed with one ``int()`` per value; a list that names a label takes
the per-token path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .instructions import Instruction, OpCategory, Opcode
from .program import Program


class AssemblyError(ValueError):
    """Raised for any syntactic or semantic error in assembly source."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


_REGISTER_RE = re.compile(r"^r(\d{1,2})$")
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\((r\d{1,2})\)$")

_OPCODES_BY_NAME = {op.value: op for op in Opcode}

#: Entries each process-wide memo below holds before it starts over.
_MEMO_LIMIT = 1 << 14
#: Text of an instruction line that names no label -> its instruction.
_LINE_MEMO: Dict[str, Instruction] = {}
#: Every instruction parsed in this process, as its own canonical copy.
_INTERNED: Dict[Instruction, Instruction] = {}


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value


def parse_register(token: str, line_no: int) -> int:
    match = _REGISTER_RE.match(token)
    if not match:
        raise AssemblyError(f"expected register, got {token!r}", line_no)
    reg = int(match.group(1))
    if reg >= 32:
        raise AssemblyError(f"register r{reg} out of range", line_no)
    return reg


def parse_immediate(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"expected immediate, got {token!r}", line_no) from None


@dataclass
class Assembler:
    """Two-pass assembler producing a :class:`Program`.

    Pass one collects labels and sizes segments; pass two resolves
    label references and emits :class:`Instruction` objects.
    """

    name: str = "program"
    #: (instruction text, line number) captured in pass one.
    _code: List[Tuple[str, int]] = field(default_factory=list)
    _code_labels: Dict[str, int] = field(default_factory=dict)
    _data_labels: Dict[str, int] = field(default_factory=dict)
    _data: Dict[int, int] = field(default_factory=dict)
    _data_cursor: int = 0
    #: .word entries naming labels: (word address, label, line) fixups
    #: resolved once all code labels are known (jump tables).
    _data_fixups: List[Tuple[int, str, int]] = field(default_factory=list)
    #: Set while resolving a line that names a label (never memoised).
    _names_label: bool = False

    def assemble(self, source: str) -> Program:
        self._pass_one(source)
        memo = _LINE_MEMO
        instructions = []
        for text, line_no in self._code:
            instruction = memo.get(text)
            if instruction is None:
                instruction = self._resolve(text, line_no)
            instructions.append(instruction)
        for address, label, line_no in self._data_fixups:
            if label in self._code_labels:
                self._data[address] = self._code_labels[label]
            elif label in self._data_labels:
                self._data[address] = self._data_labels[label]
            else:
                raise AssemblyError(f"undefined label {label!r} in .word", line_no)
        labels = dict(self._data_labels)
        labels.update(self._code_labels)
        entry = self._code_labels.get("start", 0)
        return Program(
            instructions=instructions,
            data=dict(self._data),
            labels=labels,
            entry=entry,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # pass one: tokenise, track segments, record labels
    # ------------------------------------------------------------------

    def _pass_one(self, source: str) -> None:
        segment = "text"
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split(";")[0].split("#")[0].strip()
            if not line:
                continue
            # peel off any leading labels ("foo: bar: addi ...")
            while True:
                head, sep, rest = line.partition(":")
                if sep and _LABEL_RE.match(head.strip()):
                    self._define_label(head.strip(), segment, line_no)
                    line = rest.strip()
                    if not line:
                        break
                else:
                    break
            if not line:
                continue
            if line.startswith("."):
                segment = self._directive(line, segment, line_no)
                continue
            if segment != "text":
                raise AssemblyError("instruction outside .text segment", line_no)
            self._code.append((line, line_no))

    def _define_label(self, label: str, segment: str, line_no: int) -> None:
        if label in self._code_labels or label in self._data_labels:
            raise AssemblyError(f"duplicate label {label!r}", line_no)
        if segment == "text":
            self._code_labels[label] = len(self._code)
        else:
            self._data_labels[label] = self._data_cursor

    def _directive(self, line: str, segment: str, line_no: int) -> str:
        directive, __, arg_text = line.partition(" ")
        if directive == ".text":
            return "text"
        if directive == ".data":
            return "data"
        if directive == ".word":
            if segment != "data":
                raise AssemblyError(".word outside .data segment", line_no)
            tokens = arg_text.split(",")
            try:
                values = [int(token, 0) & 0xFFFFFFFF for token in tokens]
            except ValueError:  # a label, or a malformed token
                pass
            else:
                cursor = self._data_cursor
                self._data.update(zip(range(cursor, cursor + len(values)), values))
                self._data_cursor = cursor + len(values)
                return segment
            for token in tokens:
                token = token.strip()
                if _LABEL_RE.match(token) and not token.lstrip("-").isdigit():
                    # label reference (e.g. a jump-table entry): fixed up
                    # after pass two, when code labels are final
                    self._data_fixups.append((self._data_cursor, token, line_no))
                    self._data[self._data_cursor] = 0
                else:
                    value = parse_immediate(token, line_no)
                    self._data[self._data_cursor] = value & 0xFFFFFFFF
                self._data_cursor += 1
            return segment
        if directive == ".space":
            if segment != "data":
                raise AssemblyError(".space outside .data segment", line_no)
            count = parse_immediate(arg_text.strip(), line_no)
            if count < 0:
                raise AssemblyError(".space with negative size", line_no)
            self._data_cursor += count
            return segment
        raise AssemblyError(f"unknown directive {directive!r}", line_no)

    # ------------------------------------------------------------------
    # pass two: resolve operands and emit instructions
    # ------------------------------------------------------------------

    def _resolve(self, text: str, line_no: int) -> Instruction:
        """Parse one instruction line; memoise it if it names no label."""
        mnemonic, __, operand_text = text.partition(" ")
        operands = [tok.strip() for tok in operand_text.split(",") if tok.strip()]
        self._names_label = False
        instruction = self._instruction(mnemonic.lower(), operands, line_no)
        canonical = _INTERNED.get(instruction)
        if canonical is None:
            _remember(_INTERNED, instruction, instruction)
        else:
            instruction = canonical
        if not self._names_label:
            _remember(_LINE_MEMO, text, instruction)
        return instruction

    def _instruction(self, mnemonic: str, ops: List[str], line_no: int) -> Instruction:
        if mnemonic == "la":  # pseudo-op: load data address
            self._expect(ops, 2, mnemonic, line_no)
            rd = parse_register(ops[0], line_no)
            address = self._data_address(ops[1], line_no)
            return Instruction(Opcode.ADDI, rd=rd, rs1=0, imm=address)
        if mnemonic == "li":  # pseudo-op: load immediate
            self._expect(ops, 2, mnemonic, line_no)
            rd = parse_register(ops[0], line_no)
            return Instruction(
                Opcode.ADDI, rd=rd, rs1=0, imm=parse_immediate(ops[1], line_no)
            )
        if mnemonic == "mv":  # pseudo-op: register move
            self._expect(ops, 2, mnemonic, line_no)
            rd = parse_register(ops[0], line_no)
            rs1 = parse_register(ops[1], line_no)
            return Instruction(Opcode.ADD, rd=rd, rs1=rs1, rs2=0)
        opcode = _OPCODES_BY_NAME.get(mnemonic)
        if opcode is None:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)
        cat = opcode.category
        if cat is OpCategory.ALU_RRR:
            self._expect(ops, 3, mnemonic, line_no)
            return Instruction(
                opcode,
                rd=parse_register(ops[0], line_no),
                rs1=parse_register(ops[1], line_no),
                rs2=parse_register(ops[2], line_no),
            )
        if cat is OpCategory.ALU_RRI:
            self._expect(ops, 3, mnemonic, line_no)
            return Instruction(
                opcode,
                rd=parse_register(ops[0], line_no),
                rs1=parse_register(ops[1], line_no),
                imm=parse_immediate(ops[2], line_no),
            )
        if cat is OpCategory.LUI:
            self._expect(ops, 2, mnemonic, line_no)
            return Instruction(
                opcode,
                rd=parse_register(ops[0], line_no),
                imm=parse_immediate(ops[1], line_no),
            )
        if cat in (OpCategory.LOAD, OpCategory.STORE):
            self._expect(ops, 2, mnemonic, line_no)
            offset, base = self._memory_operand(ops[1], line_no)
            if cat is OpCategory.LOAD:
                return Instruction(
                    opcode,
                    rd=parse_register(ops[0], line_no),
                    rs1=base,
                    imm=offset,
                )
            return Instruction(
                opcode,
                rs2=parse_register(ops[0], line_no),
                rs1=base,
                imm=offset,
            )
        if cat is OpCategory.BRANCH:
            self._expect(ops, 3, mnemonic, line_no)
            target, label = self._code_target(ops[2], line_no)
            return Instruction(
                opcode,
                rs1=parse_register(ops[0], line_no),
                rs2=parse_register(ops[1], line_no),
                imm=target,
                target_label=label,
            )
        if cat is OpCategory.JUMP:
            self._expect(ops, 1, mnemonic, line_no)
            target, label = self._code_target(ops[0], line_no)
            rd = 31 if opcode is Opcode.JAL else 0
            return Instruction(opcode, rd=rd, imm=target, target_label=label)
        if cat is OpCategory.JUMP_REGISTER:
            self._expect(ops, 1, mnemonic, line_no)
            return Instruction(opcode, rs1=parse_register(ops[0], line_no))
        # SYSTEM
        self._expect(ops, 0, mnemonic, line_no)
        return Instruction(opcode)

    @staticmethod
    def _expect(ops: List[str], count: int, mnemonic: str, line_no: int) -> None:
        if len(ops) != count:
            raise AssemblyError(
                f"{mnemonic} expects {count} operand(s), got {len(ops)}", line_no
            )

    def _memory_operand(self, token: str, line_no: int) -> Tuple[int, int]:
        match = _MEM_OPERAND_RE.match(token)
        if not match:
            raise AssemblyError(
                f"expected offset(base) operand, got {token!r}", line_no
            )
        offset_text, base_text = match.groups()
        if _LABEL_RE.match(offset_text) and not offset_text.lstrip("-").isdigit():
            offset = self._data_address(offset_text, line_no)
        else:
            offset = parse_immediate(offset_text, line_no)
        return offset, parse_register(base_text, line_no)

    def _code_target(self, token: str, line_no: int) -> Tuple[int, Optional[str]]:
        if token in self._code_labels:
            self._names_label = True
            return self._code_labels[token], token
        if token.lstrip("-").isdigit():
            return int(token), None
        raise AssemblyError(f"undefined code label {token!r}", line_no)

    def _data_address(self, token: str, line_no: int) -> int:
        if token in self._data_labels:
            self._names_label = True
            return self._data_labels[token]
        raise AssemblyError(f"undefined data label {token!r}", line_no)


def assemble(source: str, name: str = "program") -> Program:
    """Assemble ``source`` text into a runnable :class:`Program`."""
    return Assembler(name=name).assemble(source)
