"""Graceful-interrupt tests: the abort flag, ``run_aborted`` journal
event, SIGINT delivered to a real ``repro run-all`` process, and
``--resume`` continuing a drained run."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import (
    SMOKE,
    RunAborted,
    abort_requested,
    clear_abort,
    request_abort,
    run_all,
)
from repro.obs.journal import RunJournal, validate_journal


@pytest.fixture(autouse=True)
def clean_abort_flag():
    clear_abort()
    yield
    clear_abort()


class TestAbortFlag:
    def test_flag_round_trip(self):
        assert not abort_requested()
        request_abort()
        assert abort_requested()
        clear_abort()
        assert not abort_requested()

    def test_preset_abort_raises_before_any_experiment(self):
        journal = RunJournal(io.StringIO())
        request_abort()
        with pytest.raises(RunAborted) as info:
            run_all(SMOKE, only=["tab3"], jobs=1, journal=journal)
        assert info.value.results == {}
        assert journal.event_counts["run_aborted"] == 1
        assert "run_finished" not in journal.event_counts

    def test_abort_mid_run_keeps_finished_results(self):
        """Raise the flag after the first experiment: it stays in the
        partial results and the journal lists it as finished."""
        stream = io.StringIO()
        journal = RunJournal(stream)
        emitted = journal.emit

        def emit_and_abort(event, **fields):
            record = emitted(event, **fields)
            if event == "experiment_finished":
                request_abort()
            return record

        journal.emit = emit_and_abort
        with pytest.raises(RunAborted) as info:
            run_all(SMOKE, only=["tab3", "fig1"], jobs=1, journal=journal)
        assert list(info.value.results) == ["tab3"]
        lines = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        aborted = [r for r in lines if r["event"] == "run_aborted"]
        assert len(aborted) == 1
        assert aborted[0]["reason"] == "signal"
        assert aborted[0]["finished"] == ["tab3"]


CHILD_TEMPLATE = """
import os, signal
from repro.obs import journal as journal_mod

original_emit = journal_mod.RunJournal.emit
state = {{"finished": 0}}

def interrupting_emit(self, event, **fields):
    record = original_emit(self, event, **fields)
    if event == "experiment_finished":
        state["finished"] += 1
        if state["finished"] == {interrupt_after}:
            os.kill(os.getpid(), signal.SIGINT)
    return record

journal_mod.RunJournal.emit = interrupting_emit
from repro.cli import main
raise SystemExit(main({argv!r}))
"""


class TestSigintRegression:
    """A real ``repro run-all`` process receives SIGINT mid-battery:
    it must drain, exit 130 with a valid journal ending in
    ``run_aborted``, and leave checkpoints ``--resume`` can use."""

    ARGS = [
        "run-all",
        "--only",
        "tab3,fig1",
        "--scale",
        "smoke",
        "--workloads",
        "compress",
    ]

    def _run(self, tmp_path, argv, interrupt_after=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("REPRO_FAULTS", None)
        if interrupt_after is None:
            code = (
                "from repro.cli import main\n"
                f"raise SystemExit(main({argv!r}))\n"
            )
        else:
            code = CHILD_TEMPLATE.format(
                interrupt_after=interrupt_after, argv=argv
            )
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_sigint_drains_then_resume_completes(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        interrupted = self._run(
            tmp_path,
            self.ARGS + ["--journal", str(journal)],
            interrupt_after=1,
        )
        assert interrupted.returncode == 130, interrupted.stderr
        assert "draining in-flight experiments" in interrupted.stderr
        assert f"--resume {journal}" in interrupted.stderr

        # the journal is valid and ends with the terminal abort event
        events, problems = validate_journal(journal)
        assert not problems
        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        kinds = [r["event"] for r in records]
        assert "run_aborted" in kinds
        assert "run_finished" not in kinds
        aborted = records[kinds.index("run_aborted")]
        assert aborted["finished"] == ["tab3"]

        # --resume skips the drained experiment and finishes the rest
        resumed = self._run(
            tmp_path,
            self.ARGS
            + [
                "--resume",
                str(journal),
                "--journal",
                str(tmp_path / "resumed.jsonl"),
            ],
        )
        assert resumed.returncode == 0, resumed.stderr
        resumed_records = [
            json.loads(line)
            for line in (tmp_path / "resumed.jsonl").read_text().splitlines()
        ]
        resumed_kinds = [r["event"] for r in resumed_records]
        assert "run_finished" in resumed_kinds
        skipped = [
            r["experiment"]
            for r in resumed_records
            if r["event"] == "experiment_skipped"
        ]
        assert skipped == ["tab3"]
