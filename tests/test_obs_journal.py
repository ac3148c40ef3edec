"""Run journal: schema validation, writer guarantees, battery round-trip."""

import io
import json

import pytest

from repro.engine import cache as artifact_cache
from repro.engine import clear_cache
from repro.harness import SMOKE, clear_memoised, run_all
from repro.obs.journal import (
    SCHEMA_VERSION,
    JournalValidationError,
    NullJournal,
    RunJournal,
    read_journal,
    read_journal_tolerant,
    summarize,
    validate_event,
    validate_journal,
    validate_lines,
)


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


def _valid(event="warning", **fields):
    record = {"event": event, "v": SCHEMA_VERSION, "seq": 0, "ts": 1.0}
    if event == "warning":
        record["message"] = "m"
    record.update(fields)
    return record


class TestValidateEvent:
    def test_valid_warning(self):
        assert validate_event(_valid()) == []

    def test_non_object_rejected(self):
        assert validate_event([1, 2]) != []

    def test_unknown_event_rejected(self):
        errors = validate_event(_valid(event="no_such_event", message="m"))
        assert any("unknown event" in error for error in errors)

    def test_missing_required_field(self):
        record = _valid()
        del record["message"]
        errors = validate_event(record)
        assert any("missing required field" in error for error in errors)

    def test_wrong_type_rejected(self):
        errors = validate_event(_valid(message=42))
        assert any("wrong type" in error for error in errors)

    def test_wrong_schema_version_rejected(self):
        errors = validate_event(_valid(v=999))
        assert any("'v' must be" in error for error in errors)

    def test_extra_fields_allowed(self):
        assert validate_event(_valid(context="anything")) == []

    def test_bool_is_not_an_int(self):
        record = {
            "event": "run_started",
            "v": SCHEMA_VERSION,
            "seq": 0,
            "ts": 1.0,
            "selection": [],
            "jobs": True,  # bool must not satisfy the int contract
            "mode": "serial",
            "scale": {},
        }
        errors = validate_event(record)
        assert any("jobs" in error for error in errors)


class TestValidateLines:
    def test_bad_json_reported_with_line_number(self):
        count, errors = validate_lines(["{not json"])
        assert count == 1
        assert errors and errors[0].startswith("line 1:")

    def test_out_of_order_seq_reported(self):
        lines = [
            json.dumps(_valid(seq=0)),
            json.dumps(_valid(seq=5)),
        ]
        __, errors = validate_lines(lines)
        assert any("out of order" in error for error in errors)

    def test_blank_lines_ignored(self):
        count, errors = validate_lines(["", json.dumps(_valid()), "  "])
        assert count == 1 and errors == []


class TestRunJournalWriter:
    def test_emit_stamps_and_counts(self):
        stream = io.StringIO()
        journal = RunJournal(stream)
        journal.emit("warning", message="one")
        journal.emit("warning", message="two")
        assert journal.events_written == 2
        assert journal.event_counts == {"warning": 2}
        count, errors = validate_lines(stream.getvalue().splitlines())
        assert count == 2 and errors == []

    def test_emit_refuses_invalid_event(self):
        journal = RunJournal(io.StringIO())
        with pytest.raises(JournalValidationError):
            journal.emit("warning")  # missing required 'message'
        with pytest.raises(JournalValidationError):
            journal.emit("not_an_event", message="m")

    def test_path_writer_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.emit("warning", message="hello")
        events = read_journal(path)
        assert [event["event"] for event in events] == ["warning"]
        assert events[0]["seq"] == 0

    def test_read_journal_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "warning", "v": 1, "seq": 0, "ts": 1.0}\n')
        with pytest.raises(JournalValidationError):
            read_journal(path)

    def test_read_journal_raises_on_bad_json(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(json.dumps(_valid()) + '\n{"event": "warn')
        with pytest.raises(JournalValidationError, match="line 2: not valid JSON"):
            read_journal(path)

    def test_tolerant_reader_skips_and_reports_bad_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [
            json.dumps(_valid()),
            "",
            json.dumps(_valid(seq=1, message=42)),
            '{"event": "warn',
        ]
        path.write_text("\n".join(lines) + "\n")
        events, problems = read_journal_tolerant(path)
        assert events == [_valid()]
        assert problems[0].startswith("line 3: warning: field 'message'")
        assert problems[1] == "line 4: truncated or invalid JSON"

    def test_null_journal_is_inert(self):
        journal = NullJournal()
        assert journal.emit("anything", whatever=1) == {}
        journal.close()


class TestDurability:
    def test_terminal_events_are_fsynced(self, tmp_path, monkeypatch):
        """run_aborted / experiment_failed / run_finished lines must
        reach disk before the process can die; routine events only
        flush."""
        import os as os_mod

        synced = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(
            "repro.obs.journal.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.emit("warning", message="routine")
        assert synced == []  # non-terminal: flushed, not fsynced
        journal.emit("run_aborted", reason="signal", finished=[])
        assert len(synced) == 1
        journal.emit(
            "experiment_failed", experiment="tab3", error="boom", traceback=""
        )
        assert len(synced) == 2
        journal.emit("run_finished", experiments=[], duration_s=0.1)
        assert len(synced) == 3
        journal.close()

    def test_stringio_journal_swallows_fsync(self):
        journal = RunJournal(io.StringIO())
        journal.emit("run_aborted", reason="signal", finished=[])


class TestAbortEvent:
    """The graceful-interrupt event validates like any other."""

    def test_event_validates(self):
        event = _valid("run_aborted", reason="signal", finished=["tab3"])
        assert validate_event(event) == []

    def test_missing_field_rejected(self):
        record = _valid("run_aborted", reason="signal")
        assert validate_event(record)  # finished missing


class TestBatteryRoundTrip:
    """Serial and parallel smoke runs write schema-valid journals with
    the same experiment vocabulary (acceptance criterion)."""

    SELECTION = ["fig1", "tab3"]

    def _run(self, tmp_path, jobs):
        path = tmp_path / f"run-{jobs}.jsonl"
        with RunJournal(path) as journal:
            results = run_all(SMOKE, only=self.SELECTION, jobs=jobs, journal=journal)
        return results, read_journal(path), path

    def test_serial_journal_schema_valid(self, isolated_cache, tmp_path):
        __, events, path = self._run(tmp_path, jobs=1)
        count, errors = validate_journal(path)
        assert errors == []
        names = [event["event"] for event in events]
        assert names[0] == "run_started"
        assert names[-1] == "run_finished"
        assert names.count("experiment_started") == len(self.SELECTION)
        assert names.count("experiment_finished") == len(self.SELECTION)
        assert all(
            event["mode"] == "serial"
            for event in events
            if event["event"].startswith("experiment_")
        )

    def test_parallel_journal_schema_valid(self, isolated_cache, tmp_path):
        results, events, path = self._run(tmp_path, jobs=2)
        __, errors = validate_journal(path)
        assert errors == []
        modes = {
            event["mode"]
            for event in events
            if event["event"] == "experiment_finished"
        }
        assert modes == {"parallel"}
        assert [e for e in events if e["event"] == "run_started"][0]["jobs"] == 2

    def test_journal_branches_match_registry_delta(self, isolated_cache, tmp_path):
        """The metrics_snapshot event and the report's throughput note
        read the same registry, so the simulated-branch totals agree."""
        from repro.obs.registry import REGISTRY

        baseline = REGISTRY.snapshot()
        __, events, __ = self._run(tmp_path, jobs=1)
        delta = REGISTRY.since(baseline)
        snapshot = [e for e in events if e["event"] == "metrics_snapshot"][0]
        assert snapshot["counters"].get("sim.branches", 0.0) == pytest.approx(
            delta.counters.get("sim.branches", 0.0)
        )

    def test_report_mentions_journal(self, isolated_cache, tmp_path):
        from repro.harness import render_report

        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            results = run_all(SMOKE, only=["fig1"], jobs=1, journal=journal)
            report = render_report(results, SMOKE, journal=journal)
        assert "journal:" in report
        assert str(path) in report

    def test_summarize_valid_journal(self, isolated_cache, tmp_path):
        __, __, path = self._run(tmp_path, jobs=1)
        text = summarize(path)
        assert "schema:  valid" in text
        assert "run_started" in text

    def test_summarize_reports_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "mystery"}\n')
        assert "INVALID" in summarize(path)
