"""Tests for the speculation-control battery: experiment registration,
cell caching, parallel equivalence, report section, journal events and
the ``repro speculate`` CLI entry point."""

import json

import pytest

from repro.engine import cache as artifact_cache
from repro.engine import clear_cache
from repro.harness import (
    GATE_THRESHOLDS,
    SPECS,
    SPECULATION_BATTERY,
    SPECULATION_ESTIMATORS,
    Scale,
    clear_memoised,
    plan_warm_levels,
    render_report,
    render_speculation_control,
    run_all,
    run_experiment,
)
from repro.obs.journal import RunJournal, read_journal
from repro.obs.registry import REGISTRY

#: Small enough for unit tests, big enough to gate/fork at least once.
TINY = Scale(iterations=40, pipeline_instructions=4000, workloads=("compress",))


@pytest.fixture()
def isolated_cache(tmp_path):
    """A fresh disk cache + empty in-process memo tier."""
    previous_root = artifact_cache.get_cache().root
    previous_enabled = artifact_cache.get_cache().enabled
    artifact_cache.configure(root=tmp_path / "cache", enabled=True)
    clear_memoised()
    clear_cache()
    yield artifact_cache.get_cache()
    artifact_cache.configure(root=previous_root, enabled=previous_enabled)
    clear_memoised()
    clear_cache()


class TestRegistration:
    def test_battery_registered_in_experiments(self):
        for experiment_id in SPECULATION_BATTERY:
            assert experiment_id in SPECS

    def test_direct_import_order_also_registers(self):
        # importing the speculation module first must not break the
        # bottom-of-module self-registration
        from repro.harness.speculation import SPECULATION_EXPERIMENTS

        assert set(SPECULATION_EXPERIMENTS) == set(SPECULATION_BATTERY)


class TestGatingExperiment:
    def test_table_and_cells(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        (table,) = result.tables
        assert "Speculation control" in table.title
        expected_rows = (
            len(TINY.workloads) * len(SPECULATION_ESTIMATORS) * len(GATE_THRESHOLDS)
        )
        assert len(table.rows) == expected_rows
        assert len(result.data["cells"]) == expected_rows

    def test_gating_saves_wrong_path_work(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        # at threshold 1 every estimator should suppress some fetch and
        # save some squashed instructions on this branchy workload
        for cell in result.data["cells"]:
            if cell.threshold == 1:
                assert cell.fetch_gated_cycles > 0
                assert cell.wrong_path_saved > 0

    def test_journal_rows_are_json_safe(self, isolated_cache):
        result = run_experiment("speculation-gating", TINY)
        rows = result.data["journal_rows"]
        assert len(rows) == len(result.data["cells"])
        json.dumps(rows)  # must not raise

    def test_registry_metrics_counted(self, isolated_cache):
        before = REGISTRY.snapshot()
        run_experiment("speculation-gating", TINY)
        delta = REGISTRY.since(before).counters
        assert delta.get("speculation.gated_cycles", 0) > 0
        assert delta.get("speculation.wrong_path_instructions", 0) > 0
        assert delta.get("speculation.recovery_cycles", 0) > 0


class TestEagerAndInversionExperiments:
    def test_eager_cells(self, isolated_cache):
        result = run_experiment("speculation-eager", TINY)
        cells = result.data["cells"]
        assert len(cells) == len(TINY.workloads) * len(SPECULATION_ESTIMATORS)
        for cell in cells:
            assert cell.covered_mispredictions <= cell.forks
        json.dumps(result.data["journal_rows"])

    def test_inversion_negative_result_shape(self, isolated_cache):
        result = run_experiment("speculation-inversion", TINY)
        for cell in result.data["cells"]:
            assert cell.branches > 0
            assert 0.0 <= cell.base_accuracy <= 1.0
            assert cell.flips_helped + cell.flips_hurt <= cell.flips
        json.dumps(result.data["journal_rows"])


class TestWarmPlan:
    def test_speculation_kinds_planned(self):
        __, heavy = plan_warm_levels(list(SPECULATION_BATTERY), TINY)
        kinds = {}
        for kind, args in heavy:
            kinds.setdefault(kind, []).append(args)
        assert len(kinds["gating"]) == (
            len(TINY.workloads) * len(SPECULATION_ESTIMATORS) * len(GATE_THRESHOLDS)
        )
        assert len(kinds["eager"]) == len(TINY.workloads) * len(
            SPECULATION_ESTIMATORS
        )
        assert len(kinds["inversion"]) == len(TINY.workloads) * len(
            SPECULATION_ESTIMATORS
        )

    def test_trace_still_warmed(self):
        trace_tasks, __ = plan_warm_levels(["speculation-inversion"], TINY)
        assert {args[0] for __kind, args in trace_tasks} == set(TINY.workloads)


class TestParallelEquivalence:
    def test_gating_jobs2_identical_to_serial(self, isolated_cache):
        serial = run_all(TINY, only=["speculation-gating"], jobs=1)
        clear_memoised()
        parallel = run_all(TINY, only=["speculation-gating"], jobs=2)
        assert (
            serial["speculation-gating"].to_text()
            == parallel["speculation-gating"].to_text()
        )

    def test_warm_rerun_hits_disk(self, isolated_cache):
        run_all(TINY, only=["speculation-gating"], jobs=1)
        assert isolated_cache.stats.writes > 0
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        run_all(TINY, only=["speculation-gating"], jobs=1)
        delta = isolated_cache.stats.since(before)
        assert delta.hits > 0
        assert delta.misses == 0


class TestReportSection:
    def test_report_has_speculation_control_section(self, isolated_cache):
        results = run_all(
            TINY, only=["speculation-gating", "speculation-eager"], jobs=1
        )
        report = render_report(results, TINY)
        assert "## Speculation control" in report
        assert "wrong-path saved" in report
        assert "ipc delta" in report

    def test_section_absent_without_speculation_results(self, isolated_cache):
        results = run_all(TINY, only=["fig1"], jobs=1)
        assert render_speculation_control(results) is None
        assert "## Speculation control" not in render_report(results, TINY)


class TestJournalEvents:
    def test_speculation_summary_emitted_and_valid(
        self, isolated_cache, tmp_path
    ):
        path = tmp_path / "spec.jsonl"
        with RunJournal(path) as journal:
            run_all(TINY, only=["speculation-gating"], jobs=1, journal=journal)
        events = read_journal(path)  # validates every line
        summaries = [e for e in events if e["event"] == "speculation_summary"]
        assert [e["experiment"] for e in summaries] == ["speculation-gating"]
        rows = summaries[0]["rows"]
        assert {row["workload"] for row in rows} == set(TINY.workloads)
        assert all("ipc_delta" in row for row in rows)


class TestCli:
    def test_speculate_subcommand(self, isolated_cache, tmp_path, capsys):
        from repro.cli import main

        journal_path = tmp_path / "speculate.jsonl"
        status = main(
            [
                "speculate",
                "--scale",
                "smoke",
                "--workloads",
                "compress",
                "--iterations",
                "40",
                "--pipeline-instructions",
                "4000",
                "--journal",
                str(journal_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "## Speculation control" in out
        for experiment_id in SPECULATION_BATTERY:
            assert experiment_id in out
        events = read_journal(journal_path)
        assert sum(e["event"] == "speculation_summary" for e in events) == len(
            SPECULATION_BATTERY
        )

    def test_run_accepts_speculation_ids(self, isolated_cache, capsys):
        from repro.cli import main

        status = main(
            [
                "run",
                "speculation-inversion",
                "--scale",
                "smoke",
                "--workloads",
                "compress",
                "--iterations",
                "40",
            ]
        )
        assert status == 0
        assert "inversion" in capsys.readouterr().out
