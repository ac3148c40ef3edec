"""Edge-case coverage for small helpers across the package."""

import pytest

from repro.engine import clear_cache, workload_program
from repro.harness import paper_values
from repro.pipeline.records import PipelineStats


class TestPipelineStats:
    def test_zero_division_guards(self):
        stats = PipelineStats()
        assert stats.fetch_to_commit_ratio_or_none() is None
        assert stats.committed_accuracy_or_none() is None
        assert stats.all_accuracy_or_none() is None
        assert stats.ipc_or_none() is None

    def test_derived_values(self):
        stats = PipelineStats(
            cycles=100,
            fetched_instructions=300,
            committed_instructions=200,
            fetched_branches=50,
            committed_branches=40,
            committed_mispredictions=4,
            fetched_mispredictions=10,
        )
        assert stats.fetch_to_commit_ratio_or_none() == pytest.approx(1.5)
        assert stats.committed_accuracy_or_none() == pytest.approx(0.9)
        assert stats.all_accuracy_or_none() == pytest.approx(0.8)
        assert stats.ipc_or_none() == pytest.approx(2.0)


class TestCorpusCacheManagement:
    def test_clear_cache_invalidates_identity(self):
        first = workload_program("compress", 7)
        clear_cache()
        second = workload_program("compress", 7)
        assert first is not second
        # determinism still holds across the cache boundary
        assert [str(i) for i in first.instructions] == [
            str(i) for i in second.instructions
        ]


class TestPaperValues:
    def test_format_reference_complete(self):
        text = paper_values.format_reference((0.56, 0.96, 0.98, 0.30))
        assert text == "sens 56% spec 96% pvp 98% pvn 30%"

    def test_format_reference_partial(self):
        text = paper_values.format_reference((0.17, 0.94, 0.93, None))
        assert text.endswith("pvn --")

    def test_reference_tables_have_sane_ranges(self):
        for metrics in list(paper_values.TABLE2.values()) + list(
            paper_values.TABLE4_DISTANCE.values()
        ):
            for value in metrics:
                assert value is None or 0.0 <= value <= 1.0

    def test_distance_rows_cover_thresholds_one_to_seven(self):
        for predictor in ("gshare", "mcfarling"):
            for threshold in range(1, 8):
                assert (predictor, threshold) in paper_values.TABLE4_DISTANCE


class TestProgramHelpers:
    def test_static_branch_sites(self):
        program = workload_program("compress", 5)
        sites = program.static_branch_sites()
        assert sites
        assert all(
            program.instructions[pc].is_conditional_branch for pc in sites
        )

    def test_fetch_bounds(self):
        program = workload_program("compress", 5)
        with pytest.raises(IndexError):
            program.fetch(len(program))
        assert program.fetch(0) is program.instructions[0]
