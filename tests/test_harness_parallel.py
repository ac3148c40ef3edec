"""Parallel scheduler tests: warm-up planning, serial equivalence,
disk-cache integration of the experiment intermediates."""

import inspect
from dataclasses import replace

import pytest

from repro import settings
from repro.engine import cache as artifact_cache
from repro.engine import clear_cache
from repro.faults import parse_specs
from repro.harness import (
    PAPER,
    SMOKE,
    SPECS,
    Scale,
    clear_memoised,
    plan_warm_levels,
    render_report,
    run_all,
)
from repro.harness.parallel import _WARM_FUNCTIONS
from repro.harness.spec import DEP_KINDS
from repro.obs.journal import RunJournal, read_journal


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


class TestWarmPlan:
    def test_trace_tasks_cover_workloads(self):
        trace_tasks, __ = plan_warm_levels(list(SPECS), SMOKE)
        workloads = {args[0] for kind, args in trace_tasks}
        assert workloads == set(SMOKE.workloads)

    def test_heavy_tasks_cover_pipeline_and_measurement(self):
        __, heavy = plan_warm_levels(["tab1", "fig7", "tab2"], SMOKE)
        kinds = {}
        for kind, args in heavy:
            kinds.setdefault(kind, []).append(args)
        pipeline_predictors = {args[1] for args in kinds["pipeline"]}
        assert pipeline_predictors == {"gshare", "mcfarling"}
        measurement_predictors = {args[0] for args in kinds["measurement"]}
        assert measurement_predictors == {"gshare", "mcfarling", "sag"}

    def test_fig1_needs_nothing(self):
        assert plan_warm_levels(["fig1"], SMOKE) == []

    def test_no_duplicate_tasks(self):
        trace_tasks, heavy = plan_warm_levels(list(SPECS), SMOKE)
        assert len(trace_tasks) == len(set(trace_tasks))
        assert len(heavy) == len(set(heavy))

    def test_segment_chain_takes_one_wave_per_link(self):
        scale = replace(SMOKE, segment_instructions=2000)
        cells = [
            (workload, "gshare", scale.iterations, scale.pipeline_instructions, 2000)
            for workload in scale.workloads
        ]
        assert plan_warm_levels(["fig6"], scale) == [
            [("trace", (workload, scale.iterations)) for workload in scale.workloads],
            *(
                [("pipeline-segment", cell + (index, "inorder")) for cell in cells]
                for index in range(3)
            ),
            [("pipeline", cell + ("inorder",)) for cell in cells],
        ]

    def test_every_kind_has_a_warm_function(self):
        assert set(_WARM_FUNCTIONS) == set(DEP_KINDS) | {"pipeline-segment"}

    @pytest.mark.parametrize(
        "scale",
        [SMOKE, PAPER, replace(SMOKE, backend="ooo", segment_instructions=3000)],
        ids=["smoke", "paper", "ooo-segmented"],
    )
    def test_every_task_binds_to_its_function(self, scale):
        for wave in plan_warm_levels(list(SPECS), scale):
            for kind, args in wave:
                inspect.signature(_WARM_FUNCTIONS[kind]).bind(*args)


class TestSerialParallelEquivalence:
    def test_jobs4_tables_byte_identical_to_jobs1(self, isolated_cache):
        serial = run_all(SMOKE, jobs=1)
        clear_memoised()
        parallel = run_all(SMOKE, jobs=4)
        assert list(serial) == list(parallel)
        for experiment_id in serial:
            assert (
                serial[experiment_id].to_text()
                == parallel[experiment_id].to_text()
            ), experiment_id

    def test_parallel_results_carry_timing(self, isolated_cache):
        results = run_all(SMOKE, only=["fig1", "tab3"], jobs=2)
        assert all(result.duration_s is not None for result in results.values())

    def test_merge_order_is_selection_order(self, isolated_cache):
        results = run_all(SMOKE, only=["tab3", "fig1"], jobs=2)
        assert list(results) == ["tab3", "fig1"]


class TestDiskCacheIntegration:
    def test_warm_rerun_hits_disk(self, isolated_cache):
        run_all(SMOKE, only=["tab2"], jobs=1)
        assert isolated_cache.stats.writes > 0
        # a fresh process is simulated by dropping the in-memory tier
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        run_all(SMOKE, only=["tab2"], jobs=1)
        delta = isolated_cache.stats.since(before)
        assert delta.hits > 0
        assert delta.misses == 0

    def test_scale_change_misses(self, isolated_cache):
        run_all(SMOKE, only=["tab2"], jobs=1)
        clear_memoised()
        clear_cache()
        before = isolated_cache.stats.snapshot()
        other = Scale(
            iterations=(SMOKE.iterations or 0) + 10,
            pipeline_instructions=SMOKE.pipeline_instructions,
            workloads=SMOKE.workloads,
        )
        run_all(other, only=["tab2"], jobs=1)
        delta = isolated_cache.stats.since(before)
        assert delta.misses > 0

    def test_cold_battery_persists_no_in_process_views(self, isolated_cache):
        # the columnar lowering, the decoded program and the static-site
        # profile are rebuilt in each process: none reaches the disk
        one_workload = Scale(
            iterations=SMOKE.iterations,
            pipeline_instructions=SMOKE.pipeline_instructions,
            workloads=("compress",),
        )
        run_all(one_workload, only=["tab2", "fig6", "speculation-gating"], jobs=1)
        kinds = set(artifact_cache.get_cache().info()["kinds"])
        assert {"trace", "measurement", "pipeline", "spec-gating"} <= kinds
        assert not kinds & {"trace-columnar", "program-decoded", "static-sites"}

    def test_report_contains_performance_section(self, isolated_cache):
        results = run_all(SMOKE, only=["fig1", "tab3"], jobs=1)
        report = render_report(results, SMOKE)
        assert "Battery performance" in report
        assert "wall time" in report


class TestPerExperimentFallback:
    """A crashing worker costs only its own experiment (the bugfix):
    survivors keep their parallel results, only the failed one re-runs
    serially -- after its retry budget (``retries=0`` here, to pin the
    attempt count) -- and the journal records the failure with a
    classification and a traceback."""

    SELECTION = ["fig1", "tab3", "fig3"]

    def _run_with_crash(self, tmp_path, knobs, crash="tab3"):
        knobs(
            faults=tuple(parse_specs(f"crash:experiment={crash}")),
            faults_state=str(tmp_path / "fault-state"),
        )
        path = tmp_path / "crash.jsonl"
        with RunJournal(path) as journal:
            results = run_all(
                SMOKE, only=self.SELECTION, jobs=2, journal=journal, retries=0
            )
        return results, read_journal(path)

    def test_only_failed_experiment_reruns_serially(
        self, isolated_cache, tmp_path, knobs
    ):
        results, events = self._run_with_crash(tmp_path, knobs)

        failed = [e for e in events if e["event"] == "experiment_failed"]
        assert [e["experiment"] for e in failed] == ["tab3"]
        assert failed[0]["classification"] == "crash"
        assert "injected crash fault" in failed[0]["error"]
        assert "InjectedCrash" in failed[0]["traceback"]

        serial_starts = [
            e
            for e in events
            if e["event"] == "experiment_started" and e["mode"] == "serial"
        ]
        assert [e["experiment"] for e in serial_starts] == ["tab3"]

        finished = {
            e["experiment"]: e["mode"]
            for e in events
            if e["event"] == "experiment_finished"
        }
        assert finished == {"fig1": "parallel", "fig3": "parallel", "tab3": "serial"}

    def test_battery_still_complete_and_ordered(
        self, isolated_cache, tmp_path, knobs
    ):
        results, __ = self._run_with_crash(tmp_path, knobs)
        assert list(results) == self.SELECTION
        assert all(result.duration_s is not None for result in results.values())
        report = render_report(results, SMOKE)
        for experiment_id in self.SELECTION:
            assert results[experiment_id].to_text() in report

    def test_crashed_result_matches_clean_serial_run(
        self, isolated_cache, tmp_path, knobs
    ):
        results, __ = self._run_with_crash(tmp_path, knobs)
        knobs(faults=())
        clear_memoised()
        clean = run_all(SMOKE, only=["tab3"], jobs=1)
        assert results["tab3"].to_text() == clean["tab3"].to_text()


class TestRunAllContract:
    def test_unknown_id_rejected_before_pool_spinup(self):
        with pytest.raises(KeyError):
            run_all(SMOKE, only=["nope"], jobs=4)

    def test_default_jobs_env(self):
        assert settings.from_env({}).jobs == 1
        assert settings.from_env({"REPRO_JOBS": "6"}).jobs == 6
        assert settings.from_env({"REPRO_JOBS": "garbage"}).jobs == 1

    def test_default_jobs_warns_on_unparseable_value(self, knobs, capsys):
        """The bugfix: a bad REPRO_JOBS is announced, not swallowed."""
        record = settings.from_env({"REPRO_JOBS": "four"})
        import io

        stream = io.StringIO()
        knobs(ignored=record.ignored)
        run_all(SMOKE, only=[], journal=RunJournal(stream))
        assert record.jobs == 1
        assert "'four'" in capsys.readouterr().err
        assert '"context": "REPRO_JOBS"' in stream.getvalue()

    def test_default_jobs_quiet_on_valid_value(self, capsys):
        assert settings.from_env({"REPRO_JOBS": "2"}).jobs == 2
        assert capsys.readouterr().err == ""


class TestReportClock:
    def test_injectable_clock_is_deterministic(self, isolated_cache):
        results = run_all(SMOKE, only=["fig1"], jobs=1)
        one = render_report(
            results, SMOKE, clock=lambda: "2026-01-01 00:00:00", performance=False
        )
        two = render_report(
            results, SMOKE, clock=lambda: "2026-01-01 00:00:00", performance=False
        )
        assert one == two
        assert "generated: 2026-01-01 00:00:00" in one

    def test_default_clock_used_when_absent(self, isolated_cache):
        results = run_all(SMOKE, only=["fig1"], jobs=1)
        report = render_report(results, SMOKE)
        assert "generated: 2" in report  # a real timestamp
