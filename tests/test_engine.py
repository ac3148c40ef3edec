"""Tests for the trace engine: tracer equivalence and measurement."""

import sys

import pytest

from repro.engine import (
    measure,
    measure_accuracy,
    trace_branches,
    workload_program,
    workload_run,
)
from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.isa import Machine, MachineFault, Opcode, assemble
from repro.predictors import GsharePredictor
from repro.workloads import SUITE, generate_program, get_profile


class TestTracerGoldenEquivalence:
    """The fast tracer must match Machine.step exactly."""

    @pytest.mark.parametrize("name", SUITE)
    def test_tracer_matches_machine(self, name):
        program = generate_program(get_profile(name), iterations=5)
        traced = trace_branches(program)
        machine = Machine(program)
        golden = []
        while not machine.halted:
            result = machine.step()
            if result.taken is not None:
                golden.append((result.pc, result.taken))
        assert list(traced.trace) == golden
        assert traced.stats.instructions == machine.instructions_retired
        assert traced.stats.halted

    def test_tracer_final_stats(self, tiny_loop_program):
        traced = trace_branches(tiny_loop_program)
        assert traced.stats.branches == 10
        assert traced.stats.taken_branches == 9
        assert traced.stats.instructions == 32  # 2 + 10*3

    def test_max_branches_cutoff(self, compress_program):
        traced = trace_branches(compress_program, max_branches=50)
        assert len(traced.trace) == 50
        assert not traced.stats.halted

    def test_max_steps_cutoff(self):
        program = assemble("loop: j loop\nhalt")
        traced = trace_branches(program, max_steps=100)
        assert traced.stats.instructions == 100

    def test_fault_propagates(self):
        program = assemble("li r5, 999\njr r5\nhalt")

        with pytest.raises(MachineFault):
            trace_branches(program)

    def test_plain_run_off_the_end_faults_like_machine(self):
        program = assemble("addi r1, r0, 1\naddi r2, r1, 2")
        message = r"^fetch outside program at pc=2$"
        with pytest.raises(MachineFault, match=message):
            Machine(program).run()
        with pytest.raises(MachineFault, match=message):
            trace_branches(program)

    def test_category_evaluated_at_most_once_per_static_instruction(
        self, compress_program, monkeypatch
    ):
        """The opcode category is a decode-time fact, never per step."""
        category = vars(Opcode)["category"]
        evaluations = 0

        def counted(opcode):
            nonlocal evaluations
            evaluations += 1
            return category.fget(opcode)

        monkeypatch.setattr(Opcode, "category", property(counted))
        traced = trace_branches(compress_program)
        assert traced.stats.halted
        assert evaluations <= len(compress_program.instructions)


class TestMeasure:
    def test_quadrants_account_for_every_branch(self, compress_trace):
        predictor = GsharePredictor()
        estimators = {
            "jrs": JRSEstimator(threshold=15),
            "satcnt": SaturatingCountersEstimator.for_predictor(predictor),
        }
        result = measure(compress_trace, predictor, estimators)
        assert result.branches == len(compress_trace)
        for quadrant in result.quadrants.values():
            assert quadrant.total == len(compress_trace)
            # predictor-level facts are estimator-independent
            assert quadrant.incorrect == result.mispredictions

    def test_accuracy_definition(self, compress_trace):
        result = measure_accuracy(compress_trace, GsharePredictor())
        assert result.accuracy == pytest.approx(
            1 - result.mispredictions / result.branches
        )

    def test_manual_tiny_trace(self):
        """Hand-checked measurement on a two-site trace."""
        trace = [(1, True)] * 30 + [(2, False)] * 30
        predictor = GsharePredictor(table_size=16, history_bits=4)
        result = measure(trace, predictor, {"jrs": JRSEstimator(threshold=15)})
        assert result.branches == 60
        assert 0 < result.mispredictions < 20

    def test_observers_see_every_branch(self, compress_trace):
        seen = []

        def observer(pc, predicted, actual, flags):
            seen.append((pc, flags["jrs"]))

        predictor = GsharePredictor()
        measure(
            compress_trace,
            predictor,
            {"jrs": JRSEstimator(threshold=15)},
            observers=[observer],
        )
        assert len(seen) == len(compress_trace)

    def test_measure_without_estimators(self, compress_trace):
        result = measure(compress_trace, GsharePredictor(), {})
        assert result.quadrants == {}
        assert result.branches == len(compress_trace)

    def test_empty_stream_has_no_accuracy(self):
        result = measure([], GsharePredictor(), {})
        assert result.branches == 0
        assert result.accuracy is None
        assert result.misprediction_rate is None

    def test_unmeasured_estimator_names_what_was(self, compress_trace):
        result = measure(
            compress_trace, GsharePredictor(), {"jrs": JRSEstimator()}
        )
        with pytest.raises(KeyError, match=r"'satcnt' was not measured.*\(has: jrs\)"):
            result.quadrant("satcnt")


class TestCorpusCache:
    def test_workload_run_is_cached(self):
        first = workload_run("compress", 10)
        second = workload_run("compress", 10)
        assert first is second

    def test_workload_program_is_cached(self):
        assert workload_program("gcc", 5) is workload_program("gcc", 5)

    def test_different_iterations_differ(self):
        assert workload_run("compress", 10) is not workload_run("compress", 11)

    def test_trace_and_pipeline_decode_each_program_once(
        self, tmp_path, monkeypatch
    ):
        """A cold tab1 + fig6 run traces and simulates each workload,
        and both read the ``decoded_run`` memo: one ``decode_program``
        call per (workload, iterations)."""
        from repro.engine import cache as artifact_cache
        from repro.engine import clear_cache
        from repro.harness import SMOKE, clear_memoised, run_all
        from repro.pipeline import decode

        original = decode.decode_program
        decoded = []

        def counting(program):
            decoded.append(program)
            return original(program)

        # rebind every module-level binding, wherever it was imported
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "decode_program", None) is original:
                monkeypatch.setattr(module, "decode_program", counting)
        cache = artifact_cache.get_cache()
        previous = (cache.root, cache.enabled)
        artifact_cache.configure(root=tmp_path / "cache", enabled=True)
        clear_memoised()
        clear_cache()
        try:
            run_all(SMOKE, only=["tab1", "fig6"], jobs=1)
            assert decoded == [
                workload_program(name, SMOKE.iterations) for name in SMOKE.workloads
            ]
        finally:
            artifact_cache.configure(root=previous[0], enabled=previous[1])
            clear_memoised()
            clear_cache()

    def test_warm_trace_replay_generates_no_program(self, tmp_path, monkeypatch):
        """A trace-replay run whose traces are cached reads the branch
        stream only: a fresh process generates no workload program."""
        from repro.engine import cache as artifact_cache
        from repro.engine import clear_cache
        from repro.harness import SMOKE, clear_memoised, run_all

        only = ["fig3", "fig4", "fig5", "boost"]
        original = generate_program
        generated = []

        def counting(*args, **kwargs):
            generated.append(args)
            return original(*args, **kwargs)

        cache = artifact_cache.get_cache()
        previous = (cache.root, cache.enabled)
        artifact_cache.configure(root=tmp_path / "cache", enabled=True)
        clear_memoised()
        clear_cache()
        try:
            run_all(SMOKE, only=only, jobs=1)  # cold: caches the traces
            clear_memoised()
            clear_cache()
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, "generate_program", None) is original:
                    monkeypatch.setattr(module, "generate_program", counting)
            run_all(SMOKE, only=only, jobs=1)
            assert generated == []
        finally:
            artifact_cache.configure(root=previous[0], enabled=previous[1])
            clear_memoised()
            clear_cache()
