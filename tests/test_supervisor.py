"""Supervisor tests: failure taxonomy, retries with backoff, timeouts
and pool recycling, checkpoint/resume, and graceful degradation --
driven end-to-end through injected faults (``REPRO_FAULTS``)."""

import os
import pickle
from dataclasses import replace

import pytest
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro import settings
from repro.engine import cache as artifact_cache
from repro.engine import clear_cache
from repro.faults import InjectedCrash, parse_specs
from repro.harness import (
    SMOKE,
    Scale,
    classify_failure,
    clear_memoised,
    load_checkpoint,
    plan_resume,
    render_report,
    run_all,
    spec_fingerprint,
    store_checkpoint,
)
from repro.harness import parallel as parallel_mod
from repro.obs.journal import RunJournal, read_journal
from repro.obs.registry import REGISTRY


@pytest.fixture()
def isolated_cache(tmp_path):
    previous_root = artifact_cache.get_cache().root
    previous_enabled = artifact_cache.get_cache().enabled
    artifact_cache.configure(root=tmp_path / "cache", enabled=True)
    clear_memoised()
    clear_cache()
    yield artifact_cache.get_cache()
    artifact_cache.configure(root=previous_root, enabled=previous_enabled)
    clear_memoised()
    clear_cache()


@pytest.fixture()
def fault_env(tmp_path, knobs):
    """Arm REPRO_FAULTS per test with an isolated occurrence-state dir."""

    def arm(spec):
        knobs(
            faults=tuple(parse_specs(spec)),
            faults_state=str(tmp_path / "fault-state"),
        )

    knobs(faults=(), faults_state=None)
    yield arm


class TestFailureTaxonomy:
    @pytest.mark.parametrize(
        ("error", "expected"),
        [
            (FutureTimeoutError(), "timeout"),
            (MemoryError(), "fatal"),
            (KeyboardInterrupt(), "fatal"),
            (SystemExit(1), "fatal"),
            (BrokenExecutor("pool died"), "crash"),
            (InjectedCrash("injected"), "crash"),
            (pickle.UnpicklingError("bad"), "corrupt_artifact"),
            (EOFError(), "corrupt_artifact"),
            (RuntimeError("anything else"), "retryable"),
            (ValueError("still anything else"), "retryable"),
        ],
    )
    def test_classification(self, error, expected):
        assert classify_failure(error) == expected


TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
RETRIES_ENV = "REPRO_TASK_RETRIES"
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"


class TestSupervisorKnobs:
    def test_task_timeout_env(self):
        assert settings.from_env({}).task_timeout is None
        assert settings.from_env({TIMEOUT_ENV: "30"}).task_timeout == 30.0
        # anything but a finite number > 0 disables
        for off in ("0", "-1", "nan", "nope"):
            assert settings.from_env({TIMEOUT_ENV: off}).task_timeout is None, off

    def test_retries_and_backoff_env(self, capsys):
        record = settings.from_env({})
        assert record.retries == settings.DEFAULT_RETRIES
        assert record.backoff_s == settings.DEFAULT_BACKOFF_S
        record = settings.from_env({RETRIES_ENV: "5", BACKOFF_ENV: "0.1"})
        assert record.retries == 5
        assert record.backoff_s == 0.1
        # a retry count is an integer: anything else is announced and
        # falls back to the default
        for bad in ("nan", "inf", "2.7", "nope"):
            assert settings.from_env({RETRIES_ENV: bad}).retries == settings.DEFAULT_RETRIES
            assert (
                f"ignoring unparseable {RETRIES_ENV}={bad!r}"
                in capsys.readouterr().err
            )
        # a backoff is a finite number of seconds: sleeping for inf
        # raises OverflowError at the battery's first retry
        for bad in ("inf", "nan"):
            assert settings.from_env({BACKOFF_ENV: bad}).backoff_s == settings.DEFAULT_BACKOFF_S
            assert (
                f"ignoring unparseable {BACKOFF_ENV}={bad!r}"
                in capsys.readouterr().err
            )


class TestRetries:
    def test_flaky_worker_recovers_in_pool(
        self, isolated_cache, fault_env, tmp_path
    ):
        """A fail-once worker costs one retry, not a serial fallback."""
        fault_env("flaky:experiment=tab3")
        path = tmp_path / "flaky.jsonl"
        with RunJournal(path) as journal:
            results = run_all(
                SMOKE,
                only=["fig1", "tab3"],
                jobs=2,
                journal=journal,
                backoff_s=0.01,
            )
        events = read_journal(path)
        failed = [e for e in events if e["event"] == "experiment_failed"]
        assert [(e["experiment"], e["classification"]) for e in failed] == [
            ("tab3", "crash")
        ]
        retries = [e for e in events if e["event"] == "experiment_retry"]
        assert [(e["experiment"], e["attempt"]) for e in retries] == [("tab3", 2)]
        finished = {
            e["experiment"]: e["mode"]
            for e in events
            if e["event"] == "experiment_finished"
        }
        assert finished == {"fig1": "parallel", "tab3": "parallel"}
        assert list(results) == ["fig1", "tab3"]

    def test_unbounded_crash_exhausts_retries_then_runs_serially(
        self, isolated_cache, fault_env, tmp_path
    ):
        fault_env("crash:experiment=tab3")
        path = tmp_path / "crash.jsonl"
        with RunJournal(path) as journal:
            results = run_all(
                SMOKE,
                only=["fig1", "tab3"],
                jobs=2,
                journal=journal,
                retries=1,
                backoff_s=0.01,
            )
        events = read_journal(path)
        failed = [
            e["attempt"] for e in events if e["event"] == "experiment_failed"
        ]
        assert failed == [1, 2]  # initial attempt + one retry
        serial_starts = [
            e["experiment"]
            for e in events
            if e["event"] == "experiment_started" and e["mode"] == "serial"
        ]
        assert serial_starts == ["tab3"]
        assert list(results) == ["fig1", "tab3"]

    def test_retries_zero_means_one_attempt(
        self, isolated_cache, fault_env, tmp_path
    ):
        fault_env("crash:experiment=tab3")
        path = tmp_path / "noretry.jsonl"
        with RunJournal(path) as journal:
            run_all(
                SMOKE,
                only=["tab3"],
                jobs=2,
                journal=journal,
                retries=0,
                backoff_s=0.01,
            )
        events = read_journal(path)
        assert len([e for e in events if e["event"] == "experiment_failed"]) == 1
        assert not [e for e in events if e["event"] == "experiment_retry"]

    def test_backoff_schedule_is_deterministic_and_exponential(
        self, isolated_cache, fault_env, tmp_path
    ):
        fault_env("crash:experiment=tab3")
        path = tmp_path / "backoff.jsonl"
        with RunJournal(path) as journal:
            run_all(
                SMOKE,
                only=["tab3"],
                jobs=2,
                journal=journal,
                retries=2,
                backoff_s=0.01,
            )
        delays = [
            e["delay_s"]
            for e in read_journal(path)
            if e["event"] == "experiment_retry"
        ]
        assert delays == [0.01, 0.02]


class TestTimeoutAndRecycle:
    def test_hung_worker_times_out_recycles_pool_and_retries(
        self, isolated_cache, fault_env, tmp_path
    ):
        """The expensive one: a worker that sleeps forever costs one
        task timeout, the pool is recycled (hung process killed), and
        the retry completes in a fresh pool."""
        fault_env("hang:experiment=tab3:times=1")
        path = tmp_path / "hang.jsonl"
        with RunJournal(path) as journal:
            results = run_all(
                SMOKE,
                only=["fig1", "tab3"],
                jobs=2,
                journal=journal,
                task_timeout=10,
                backoff_s=0.01,
            )
        events = read_journal(path)
        failed = [e for e in events if e["event"] == "experiment_failed"]
        assert [(e["experiment"], e["classification"]) for e in failed] == [
            ("tab3", "timeout")
        ]
        assert "task timeout" in failed[0]["error"]
        recycles = [e for e in events if e["event"] == "pool_recycled"]
        assert [e["reason"] for e in recycles] == ["hung_worker"]
        finished = {
            e["experiment"]: e["mode"]
            for e in events
            if e["event"] == "experiment_finished"
        }
        assert finished == {"fig1": "parallel", "tab3": "parallel"}
        assert list(results) == ["fig1", "tab3"]


    def test_zero_timeout_means_off(self, isolated_cache, tmp_path, knobs):
        """``task_timeout=0`` is off, as ``REPRO_TASK_TIMEOUT=0`` is: no
        task times out the moment it is submitted."""
        knobs(task_timeout=None)
        path = tmp_path / "zero-timeout.jsonl"
        with RunJournal(path) as journal:
            results = run_all(
                SMOKE, only=["fig1"], jobs=2, task_timeout=0, journal=journal
            )
        events = read_journal(path)
        assert not [e for e in events if e.get("classification") == "timeout"]
        assert not [e for e in events if e["event"] == "pool_recycled"]
        assert list(results) == ["fig1"]


class TestPoolLevelDegradation:
    def test_unbuildable_pool_degrades_to_full_serial_run(
        self, isolated_cache, tmp_path, monkeypatch
    ):
        """Pool construction failing entirely (no forks allowed, broken
        multiprocessing) must not cost any experiment: the whole
        selection runs serially in the parent."""

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", NoPool)
        path = tmp_path / "nopool.jsonl"
        with RunJournal(path) as journal:
            results = run_all(SMOKE, only=["fig1", "tab3"], jobs=2, journal=journal)
        events = read_journal(path)
        warnings = [e for e in events if e["event"] == "warning"]
        assert any(e["context"] == "pool" for e in warnings)
        finished = {
            e["experiment"]: e["mode"]
            for e in events
            if e["event"] == "experiment_finished"
        }
        assert finished == {"fig1": "serial", "tab3": "serial"}
        assert list(results) == ["fig1", "tab3"]
        assert all(r.duration_s is not None for r in results.values())


class TestFaultedEquivalence:
    def test_faulted_parallel_report_matches_clean_serial(
        self, isolated_cache, fault_env, tmp_path
    ):
        """The acceptance bar: crash + corruption faults under jobs=2
        must not change a byte of the report."""
        fault_env("flaky:experiment=tab3,corrupt:artifact=trace:times=1")
        faulted = run_all(
            SMOKE, only=["fig1", "tab3", "fig3"], jobs=2, backoff_s=0.01
        )
        fault_env("")  # disarm
        clear_memoised()
        clean = run_all(SMOKE, only=["fig1", "tab3", "fig3"], jobs=1)
        clock = lambda: "(timestamp stripped)"  # noqa: E731
        assert render_report(
            faulted, SMOKE, clock=clock, performance=False
        ) == render_report(clean, SMOKE, clock=clock, performance=False)


class TestCheckpoints:
    def test_store_then_load_roundtrip(self, isolated_cache):
        results = run_all(SMOKE, only=["fig1"], jobs=1)
        hit, restored = load_checkpoint("fig1", SMOKE)
        assert hit
        assert restored.to_text() == results["fig1"].to_text()

    def test_scale_mismatch_is_a_miss(self, isolated_cache):
        run_all(SMOKE, only=["fig1"], jobs=1)
        other = Scale(
            iterations=(SMOKE.iterations or 0) + 1,
            pipeline_instructions=SMOKE.pipeline_instructions,
            workloads=SMOKE.workloads,
        )
        hit, __ = load_checkpoint("fig1", other)
        assert not hit

    def test_disabled_cache_disables_checkpoints(self, tmp_path):
        previous_root = artifact_cache.get_cache().root
        previous_enabled = artifact_cache.get_cache().enabled
        artifact_cache.configure(root=tmp_path / "off", enabled=False)
        try:
            store_checkpoint("fig1", SMOKE, object())
            hit, __ = load_checkpoint("fig1", SMOKE)
            assert not hit
        finally:
            artifact_cache.configure(root=previous_root, enabled=previous_enabled)

    def test_poisoned_checkpoint_is_rejected(self, isolated_cache):
        cache = isolated_cache
        from repro.harness.checkpoint import checkpoint_key

        cache.store(checkpoint_key(cache, "fig1", SMOKE), {"not": "a result"})
        hit, value = load_checkpoint("fig1", SMOKE)
        assert not hit and value is None


class TestBudgetInvalidation:
    """Satellite regression: the simulation budgets are folded into
    ``spec_fingerprint``, so ``--resume`` after a budget bump (or a
    changed segment size) re-runs instead of silently reusing a
    checkpoint measured under different budgets."""

    def test_fingerprint_tracks_each_budget(self):
        base = spec_fingerprint("fig1", SMOKE)
        assert spec_fingerprint("fig1", replace(SMOKE)) == base  # stable
        assert (
            spec_fingerprint(
                "fig1", replace(SMOKE, iterations=(SMOKE.iterations or 0) + 1)
            )
            != base
        )
        assert (
            spec_fingerprint(
                "fig1",
                replace(
                    SMOKE,
                    pipeline_instructions=SMOKE.pipeline_instructions + 1,
                ),
            )
            != base
        )
        assert (
            spec_fingerprint("fig1", replace(SMOKE, segment_instructions=1000))
            != base
        )

    def test_stale_segment_size_checkpoint_is_a_miss(self, isolated_cache):
        run_all(SMOKE, only=["fig1"], jobs=1)
        hit, __ = load_checkpoint("fig1", SMOKE)
        assert hit
        hit, __ = load_checkpoint(
            "fig1", replace(SMOKE, segment_instructions=1000)
        )
        assert not hit


class TestFaultStateLifecycle:
    """Satellite regression: the supervisor must release the
    occurrence-state ledger it auto-created.  Before the fix the
    exported ``REPRO_FAULTS_STATE`` tempdir (and its claim markers)
    leaked into the next battery in the same process, so a ``times=1``
    fault could fire twice or never.  Neither battery touches the
    environment: the ledger reaches the workers in the settings record."""

    def test_times_one_fault_fires_once_per_battery(
        self, isolated_cache, tmp_path, knobs
    ):
        knobs(faults=tuple(parse_specs("flaky:experiment=tab3")), faults_state=None)
        environment = dict(os.environ)
        for battery in range(2):
            clear_memoised()
            path = tmp_path / f"battery{battery}.jsonl"
            with RunJournal(path) as journal:
                run_all(
                    SMOKE,
                    only=["tab3"],
                    jobs=2,
                    journal=journal,
                    backoff_s=0.01,
                )
            events = read_journal(path)
            failed = [
                (e["experiment"], e["classification"])
                for e in events
                if e["event"] == "experiment_failed"
            ]
            assert failed == [("tab3", "crash")], (
                f"battery {battery}: a times=1 fault must fire exactly"
                f" once per supervised battery, saw {failed}"
            )
            # the ledger the supervisor created is gone again
            assert settings.current().faults_state is None
            assert dict(os.environ) == environment

    def test_inherited_state_dir_is_preserved(
        self, isolated_cache, tmp_path, knobs
    ):
        """An externally exported ledger (CI chaos legs share one across
        a kill/resume pair) must survive the battery untouched."""
        state = tmp_path / "shared-ledger"
        knobs(faults=tuple(parse_specs("flaky:experiment=tab3")), faults_state=str(state))
        environment = dict(os.environ)
        run_all(SMOKE, only=["tab3"], jobs=2, backoff_s=0.01)
        assert settings.current().faults_state == str(state)
        assert dict(os.environ) == environment
        assert state.is_dir()
        # the claimed occurrences persist for the next leg of the pair
        assert list(state.glob("spec*.occ*"))


class TestResume:
    SELECTION = ["fig1", "tab3", "fig3"]

    def _first_run(self, tmp_path):
        path = tmp_path / "first.jsonl"
        with RunJournal(path) as journal:
            results = run_all(SMOKE, only=self.SELECTION, jobs=1, journal=journal)
        return path, results

    def test_plan_resume_reads_selection_scale_and_ledger(
        self, isolated_cache, tmp_path
    ):
        path, __ = self._first_run(tmp_path)
        plan = plan_resume(path)
        assert plan.selection == self.SELECTION
        assert plan.scale == SMOKE
        assert plan.finished == self.SELECTION
        assert plan.problems == []

    def test_plan_resume_tolerates_truncated_tail(self, isolated_cache, tmp_path):
        path, __ = self._first_run(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill -9 mid-write
        plan = plan_resume(path)
        assert plan.selection == self.SELECTION
        assert len(plan.problems) == 1

    def test_resume_skips_finished_and_matches_original(
        self, isolated_cache, tmp_path
    ):
        path, first = self._first_run(tmp_path)
        clear_memoised()
        resumed_path = tmp_path / "resumed.jsonl"
        with RunJournal(resumed_path) as journal:
            resumed = run_all(
                SMOKE, only=self.SELECTION, jobs=1, journal=journal, resume=path
            )
        events = read_journal(resumed_path)
        skipped = [
            e["experiment"] for e in events if e["event"] == "experiment_skipped"
        ]
        assert skipped == self.SELECTION
        assert all(e["source"] == "checkpoint" for e in events if e["event"] == "experiment_skipped")
        assert not [e for e in events if e["event"] == "experiment_started"]
        resumed_events = [e for e in events if e["event"] == "run_resumed"]
        assert len(resumed_events) == 1
        assert resumed_events[0]["skipped"] == self.SELECTION
        for experiment_id in self.SELECTION:
            assert (
                resumed[experiment_id].to_text()
                == first[experiment_id].to_text()
            )

    def test_resume_runs_only_the_unfinished_remainder(
        self, isolated_cache, tmp_path
    ):
        """Simulate a battery killed after its first experiment: the
        journal records one finish, resume re-runs only the rest."""
        path, __ = self._first_run(tmp_path)
        events = read_journal(path)
        keep = []
        for event, line in zip(events, path.read_text().splitlines()):
            keep.append(line)
            if event["event"] == "experiment_finished":
                break  # the kill lands right after fig1 completes
        path.write_text("\n".join(keep) + "\n")

        clear_memoised()
        resumed_path = tmp_path / "resumed.jsonl"
        with RunJournal(resumed_path) as journal:
            resumed = run_all(
                SMOKE, only=self.SELECTION, jobs=1, journal=journal, resume=path
            )
        events = read_journal(resumed_path)
        skipped = [
            e["experiment"] for e in events if e["event"] == "experiment_skipped"
        ]
        started = [
            e["experiment"] for e in events if e["event"] == "experiment_started"
        ]
        assert skipped == ["fig1"]
        assert started == ["tab3", "fig3"]
        assert list(resumed) == self.SELECTION

    def test_resume_reuses_the_bank_cells_the_killed_run_stored(
        self, isolated_cache, tmp_path
    ):
        """A measurement cell is keyed by its experiment's own families,
        whatever the selection: the first run stored tab3's mcfarling
        satcnt cells before the kill the journal cut simulates, and the
        resumed tab3 reads them back instead of measuring again."""
        selection = ["tab1", "tab3"]
        path = tmp_path / "first.jsonl"
        with RunJournal(path) as journal:
            run_all(SMOKE, only=selection, jobs=1, journal=journal)
        keep = []
        for event, line in zip(read_journal(path), path.read_text().splitlines()):
            keep.append(line)
            if event["event"] == "experiment_finished":
                break  # the kill lands right after tab1 completes
        path.write_text("\n".join(keep) + "\n")

        clear_memoised()
        resumed_path = tmp_path / "resumed.jsonl"
        with RunJournal(resumed_path) as journal:
            run_all(SMOKE, only=selection, jobs=1, journal=journal, resume=path)
        events = read_journal(resumed_path)
        assert [
            e["experiment"] for e in events if e["event"] == "experiment_started"
        ] == ["tab3"]
        (stats,) = [e for e in events if e["event"] == "cache_stats"]
        assert stats["misses"] == 0

    def test_missing_checkpoint_demotes_to_rerun(self, isolated_cache, tmp_path):
        path, first = self._first_run(tmp_path)
        isolated_cache.clear()  # checkpoints gone; journal still says finished
        clear_memoised()
        resumed_path = tmp_path / "resumed.jsonl"
        with RunJournal(resumed_path) as journal:
            resumed = run_all(
                SMOKE, only=self.SELECTION, jobs=1, journal=journal, resume=path
            )
        events = read_journal(resumed_path)
        assert not [e for e in events if e["event"] == "experiment_skipped"]
        started = [
            e["experiment"] for e in events if e["event"] == "experiment_started"
        ]
        assert started == self.SELECTION
        for experiment_id in self.SELECTION:
            assert (
                resumed[experiment_id].to_text()
                == first[experiment_id].to_text()
            )

    def test_resumed_report_notes_restored_experiments(
        self, isolated_cache, tmp_path
    ):
        path, __ = self._first_run(tmp_path)
        before = REGISTRY.snapshot()
        clear_memoised()
        resumed = run_all(SMOKE, only=self.SELECTION, jobs=1, resume=path)
        assert (
            REGISTRY.since(before).counters.get("supervisor.experiments_resumed")
            == len(self.SELECTION)
        )
        report = render_report(resumed, SMOKE)
        assert "restored from checkpoints" in report
