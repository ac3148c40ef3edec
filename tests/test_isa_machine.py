"""Unit tests for the functional machine, including speculation support."""

import pytest

from repro.engine import trace_branches
from repro.isa import Machine, MachineFault, Program, assemble
from repro.pipeline import PipelineSimulator
from repro.predictors import GsharePredictor


def run_to_halt(source: str) -> Machine:
    machine = Machine(assemble(source))
    machine.run()
    assert machine.halted
    return machine


class TestExecution:
    def test_arithmetic_program(self):
        machine = run_to_halt(
            """
            li r1, 6
            li r2, 7
            mul r3, r1, r2
            halt
            """
        )
        assert machine.regs[3] == 42

    def test_r0_is_hardwired_zero(self):
        machine = run_to_halt("addi r0, r0, 99\nhalt")
        assert machine.regs[0] == 0

    def test_loop_counts(self, tiny_loop_program):
        machine = Machine(tiny_loop_program)
        machine.run()
        assert machine.regs[2] == 10

    def test_memory_roundtrip(self):
        machine = run_to_halt(
            """
            .data
            buf: .space 4
            .text
            start: li r1, 123
            la r2, buf
            sw r1, 2(r2)
            lw r3, 2(r2)
            halt
            """
        )
        assert machine.regs[3] == 123

    def test_unmapped_load_reads_zero(self):
        machine = run_to_halt("lw r1, 5000(r0)\nhalt")
        assert machine.regs[1] == 0

    def test_jal_jr_roundtrip(self):
        machine = run_to_halt(
            """
            start: jal func
            halt
            func: li r1, 55
            jr r31
            """
        )
        assert machine.regs[1] == 55

    def test_branch_taken_path(self, alternating_program):
        machine = Machine(alternating_program)
        machine.run()
        assert machine.regs[4] == 20  # taken on every other of 40 visits

    def test_instructions_retired_counts(self):
        machine = run_to_halt("nop\nnop\nhalt")
        assert machine.instructions_retired == 3

    def test_step_result_fields(self):
        machine = Machine(assemble("beq r0, r0, 2\nnop\nhalt"))
        result = machine.step()
        assert result.taken is True
        assert result.next_pc == 2
        assert result.pc == 0

    def test_run_respects_max_steps(self):
        machine = Machine(assemble("loop: j loop\nhalt"))
        steps = machine.run(max_steps=25)
        assert steps == 25
        assert not machine.halted


class TestFaults:
    def test_step_after_halt_raises(self):
        machine = run_to_halt("halt")
        with pytest.raises(MachineFault):
            machine.step()

    def test_fetch_outside_program_raises(self):
        machine = Machine(assemble("jr r5\nhalt"))
        machine.regs[5] = 999
        with pytest.raises(MachineFault, match="outside"):
            machine.step()
            machine.step()


class TestSpeculationSupport:
    def test_snapshot_restore_registers(self):
        machine = Machine(assemble("li r1, 1\nli r1, 2\nhalt"))
        machine.step()
        snap = machine.snapshot()
        machine.step()
        assert machine.regs[1] == 2
        machine.restore(snap)
        assert machine.regs[1] == 1
        assert machine.pc == 1

    def test_restore_undoes_memory_writes(self):
        machine = Machine(
            assemble(
                """
                .data
                buf: .word 7
                .text
                start: snapshot_here: li r1, 99
                sw r1, 0(r0)
                sw r1, 50(r0)
                halt
                """
            )
        )
        snap = machine.snapshot()
        machine.run()
        assert machine.memory[0] == 99
        assert machine.memory[50] == 99
        machine.restore(snap)
        assert machine.memory[0] == 7  # original .data value restored
        assert 50 not in machine.memory  # fresh address evaporates

    def test_restore_clears_halted(self):
        machine = Machine(assemble("halt"))
        snap = machine.snapshot()
        machine.step()
        assert machine.halted
        machine.restore(snap)
        assert not machine.halted
        machine.step()
        assert machine.halted

    def test_nested_restore_to_older_snapshot(self):
        machine = Machine(
            assemble("sw r0, 1(r0)\nsw r0, 2(r0)\nsw r0, 3(r0)\nhalt")
        )
        older = machine.snapshot()
        machine.step()
        newer = machine.snapshot()
        machine.step()
        machine.restore(newer)
        assert 1 in machine.memory and 2 not in machine.memory
        machine.restore(older)
        assert 1 not in machine.memory

    def test_restore_newer_snapshot_after_rollback_rejected(self):
        machine = Machine(assemble("sw r0, 1(r0)\nsw r0, 2(r0)\nhalt"))
        older = machine.snapshot()
        machine.step()
        newer = machine.snapshot()
        machine.step()
        machine.restore(older)
        with pytest.raises(ValueError):
            machine.restore(newer)

    def test_trim_journal(self):
        machine = Machine(assemble("sw r0, 1(r0)\nhalt"))
        machine.step()
        assert machine.journal_length == 1
        machine.trim_journal()
        assert machine.journal_length == 0

    def test_restore_resets_retired_count(self):
        machine = Machine(assemble("nop\nnop\nhalt"))
        snap = machine.snapshot()
        machine.step()
        machine.step()
        machine.restore(snap)
        assert machine.instructions_retired == 0


class TestProgramImage:
    SOURCE = """
        lw r1, 0(r0)
        addi r2, r0, -1
        beq r1, r2, yes
        addi r3, r0, 1
        yes: halt
    """

    def _program(self, data):
        code = assemble(self.SOURCE)
        return Program(instructions=code.instructions, data=data, labels=code.labels)

    @pytest.mark.parametrize("value", [-1, 1 << 32])
    def test_data_word_outside_32_bits_rejected(self, value):
        with pytest.raises(ValueError, match="not a 32-bit value"):
            self._program({0: value})

    def test_all_ones_data_word_agrees_on_every_engine(self):
        """The masked form of -1 loads as 0xFFFFFFFF everywhere, so the
        Machine, the tracer and both pipeline fetch engines take the
        branch."""
        program = self._program({0: 0xFFFFFFFF})
        machine = Machine(program)
        golden = []
        while not machine.halted:
            result = machine.step()
            if result.taken is not None:
                golden.append((result.pc, result.taken))
        assert golden == [(2, True)]
        assert machine.regs[3] == 0
        assert list(trace_branches(program).trace) == golden
        for fast in (True, False):
            simulator = PipelineSimulator(program, GsharePredictor(), fast=fast)
            result = simulator.run()
            assert result.stats.committed_branches == len(golden)
            assert simulator.machine.regs == machine.regs
        # the reference engine (the last run) logs the committed stream
        committed = [
            (record.pc, record.actual_taken)
            for record in simulator.branch_records
            if record.committed
        ]
        assert committed == golden
