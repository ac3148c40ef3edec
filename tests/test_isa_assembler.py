"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa import AssemblyError, Opcode, assemble
from repro.isa import assembler as assembler_mod


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("halt")
        assert len(program) == 1
        assert program.instructions[0].opcode is Opcode.HALT

    def test_alu_rrr(self):
        program = assemble("add r1, r2, r3")
        inst = program.instructions[0]
        assert (inst.rd, inst.rs1, inst.rs2) == (1, 2, 3)

    def test_alu_rri_negative_immediate(self):
        program = assemble("addi r1, r1, -1")
        assert program.instructions[0].imm == -1

    def test_hex_immediate(self):
        program = assemble("li r1, 0xFF")
        assert program.instructions[0].imm == 255

    def test_memory_operands(self):
        program = assemble("lw r1, 8(r2)\nsw r3, -4(r4)")
        load, store = program.instructions
        assert (load.rd, load.rs1, load.imm) == (1, 2, 8)
        assert (store.rs2, store.rs1, store.imm) == (3, 4, -4)

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            ; leading comment
            add r1, r0, r0   # trailing comment
            halt
            """
        )
        assert len(program) == 2


class TestLabels:
    def test_branch_to_label(self):
        program = assemble(
            """
            start: addi r1, r1, 1
                   bne r1, r0, start
                   halt
            """
        )
        branch = program.instructions[1]
        assert branch.imm == 0
        assert branch.target_label == "start"

    def test_forward_reference(self):
        program = assemble(
            """
            beq r0, r0, done
            addi r1, r1, 1
            done: halt
            """
        )
        assert program.instructions[0].imm == 2

    def test_label_on_own_line(self):
        program = assemble("loop:\n  j loop\n  halt")
        assert program.labels["loop"] == 0

    def test_entry_is_start_label(self):
        program = assemble("nop\nstart: halt")
        assert program.entry == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("a: nop\na: halt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError, match="undefined"):
            assemble("j nowhere")

    def test_numeric_branch_target(self):
        program = assemble("beq r0, r0, 5\nhalt")
        assert program.instructions[0].imm == 5


class TestDataSegment:
    def test_word_directive(self):
        program = assemble(
            """
            .data
            table: .word 1, 2, 3
            .text
            halt
            """
        )
        assert program.data == {0: 1, 1: 2, 2: 3}
        assert program.labels["table"] == 0

    def test_space_directive(self):
        program = assemble(
            """
            .data
            a: .word 7
            b: .space 10
            c: .word 9
            .text
            halt
            """
        )
        assert program.labels["b"] == 1
        assert program.labels["c"] == 11
        assert program.data[11] == 9

    def test_la_pseudo_op(self):
        program = assemble(
            """
            .data
            pad: .space 3
            buf: .word 0
            .text
            start: la r1, buf
            halt
            """
        )
        assert program.instructions[0].opcode is Opcode.ADDI
        assert program.instructions[0].imm == 3

    def test_negative_word_wraps(self):
        program = assemble(".data\nx: .word -1\n.text\nhalt")
        assert program.data[0] == 0xFFFFFFFF

    def test_word_outside_data_rejected(self):
        with pytest.raises(AssemblyError, match="outside"):
            assemble(".word 1\nhalt")

    def test_code_in_data_segment_rejected(self):
        with pytest.raises(AssemblyError, match="outside .text"):
            assemble(".data\nadd r1, r2, r3")


class TestPseudoOps:
    def test_li(self):
        inst = assemble("li r5, 42").instructions[0]
        assert inst.opcode is Opcode.ADDI
        assert (inst.rd, inst.rs1, inst.imm) == (5, 0, 42)

    def test_mv(self):
        inst = assemble("mv r5, r6").instructions[0]
        assert inst.opcode is Opcode.ADD
        assert (inst.rd, inst.rs1, inst.rs2) == (5, 6, 0)

    def test_jal_writes_link(self):
        inst = assemble("f: jal f").instructions[0]
        assert inst.rd == 31


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r1, r2")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError, match="expects 3"):
            assemble("add r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblyError, match="register"):
            assemble("add r1, r2, r99")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblyError, match="offset"):
            assemble("lw r1, r2")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="directive"):
            assemble(".bogus 1")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("nop\nbogus r1")

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            assemble("; nothing but a comment")


class TestListing:
    def test_listing_mentions_labels_and_pcs(self):
        program = assemble("start: addi r1, r0, 1\nloop: bne r1, r0, loop\nhalt")
        listing = program.listing()
        assert "start:" in listing
        assert "loop:" in listing
        assert "bne" in listing

    def test_listing_limit(self):
        program = assemble("\n".join(["nop"] * 10 + ["halt"]))
        assert "more" in program.listing(limit=3)


class TestLineMemo:
    """Label-free lines are parsed once per process; nothing else leaks."""

    FIRST = """
        .data
        buf:   .word 5
        .text
        start: beq r1, r0, out
               la r2, buf
               lw r3, buf(r2)
               jal out
        out:   halt
    """
    SECOND = """
        .data
        pad:   .space 7
        buf:   .word 5
        .text
        start: nop
               nop
               beq r1, r0, out
               la r2, buf
               lw r3, buf(r2)
               jal out
               nop
        out:   halt
    """

    def test_label_lines_resolve_against_their_own_program(self):
        for __ in range(2):
            first = assemble(self.FIRST).instructions
            second = assemble(self.SECOND).instructions
            assert [(i.opcode, i.imm) for i in first[:4]] == [
                (Opcode.BEQ, 4),
                (Opcode.ADDI, 0),
                (Opcode.LW, 0),
                (Opcode.JAL, 4),
            ]
            assert [(i.opcode, i.imm) for i in second[2:6]] == [
                (Opcode.BEQ, 7),
                (Opcode.ADDI, 7),
                (Opcode.LW, 7),
                (Opcode.JAL, 7),
            ]

    def test_equal_instructions_are_one_object(self):
        first = assemble("addi r1, r1, 1\nli r4, 5\nhalt").instructions
        second = assemble("nop\naddi r1, r1, 1\naddi r4, r0, 5\nhalt").instructions
        assert first[0] is second[1]
        assert first[1] is second[2]
        assert first[2] is second[3]

    def test_bad_line_raises_with_its_own_line_number(self):
        for line_no in (1, 3, 2):
            source = "\n".join(["nop"] * (line_no - 1) + ["add r1, r2, r99", "halt"])
            with pytest.raises(AssemblyError, match=f"^line {line_no}: register r99"):
                assemble(source)

    def test_remembered_line_is_still_checked_in_context(self):
        assemble("addi r1, r1, 1\nj 0")
        with pytest.raises(AssemblyError, match="^line 3: instruction outside .text"):
            assemble("halt\n.data\naddi r1, r1, 1")
        assemble("j out\nout: halt")
        with pytest.raises(AssemblyError, match="^line 2: undefined code label 'out'"):
            assemble("nop\nj out")

    def test_memo_is_bounded(self):
        count = assembler_mod._MEMO_LIMIT + 10
        source = "\n".join(f"addi r1, r1, {value}" for value in range(count))
        program = assemble(source + "\nhalt")
        assert [i.imm for i in program.instructions[:-1]] == list(range(count))
        assert len(assembler_mod._LINE_MEMO) <= assembler_mod._MEMO_LIMIT
        assert len(assembler_mod._INTERNED) <= assembler_mod._MEMO_LIMIT


class TestWordLists:
    def test_numbers_in_every_base_and_sign(self):
        program = assemble(".data\nt: .word 7, 0x10, -1, 0b11 , 1_000\n.text\nhalt")
        assert program.data == {0: 7, 1: 16, 2: 0xFFFFFFFF, 3: 3, 4: 1000}

    def test_a_list_naming_a_label_takes_the_token_path(self):
        program = assemble(".data\nt: .word 3, f, -2\n.text\nnop\nf: halt")
        assert program.data == {0: 3, 1: 1, 2: 0xFFFFFFFE}

    @pytest.mark.parametrize("words", ["010", "1, , 2", "1, 2x", ""])
    def test_malformed_values_keep_their_error(self, words):
        with pytest.raises(AssemblyError, match="^line 2: expected immediate"):
            assemble(f".data\nt: .word {words}\n.text\nhalt")
