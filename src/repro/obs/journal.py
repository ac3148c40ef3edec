"""Structured run journal: one JSON object per line, schema-checked.

``repro run --journal PATH`` (and ``run-all``) make the harness narrate
a battery run as machine-readable events.  Both the serial and the
parallel paths write the same event vocabulary, so a journal diff is a
scheduling diff, never a results diff.

Event vocabulary (see ``docs/observability.md`` for the field tables):

* ``run_started`` -- selection, scale, worker count, execution mode;
* ``warm_task`` -- one artifact warm-up task (parallel path only);
* ``experiment_started`` / ``experiment_finished`` -- per experiment,
  with ``mode`` saying whether it ran ``"serial"`` or ``"parallel"``;
* ``experiment_failed`` -- a failed attempt, with the traceback and a
  ``classification`` from the failure taxonomy (``timeout`` / ``crash``
  / ``corrupt_artifact`` / ``retryable`` / ``fatal``);
* ``experiment_retry`` -- the supervisor rescheduling a failed
  experiment: attempt number, classification, backoff delay;
* ``experiment_skipped`` -- resume mode found the experiment already
  finished in the prior journal (its checkpointed result was reused);
* ``pool_recycled`` -- the worker pool was torn down and rebuilt
  (hung worker, broken pool);
* ``run_resumed`` -- this run continues a prior journal; lists the
  experiments it skipped;
* ``run_aborted`` -- the run was interrupted (SIGINT/SIGTERM) after
  draining in-flight tasks; lists the experiments whose checkpoints
  are consistent, so ``--resume`` can continue from here;
* ``warning`` -- non-fatal configuration or scheduling problems (a
  malformed ``REPRO_*`` value that fell back on its default, pool-level
  fallback, cache store/read errors, corrupt artifacts);
* ``speculation_summary`` -- per speculation-control experiment, the
  per-workload result rows (wrong-path savings, IPC delta, ...) the
  report's "Speculation control" section is built from;
* ``cache_stats`` -- the run's artifact-cache hit/miss delta;
* ``metrics_snapshot`` -- the run's metrics-registry delta
  (:mod:`repro.obs.registry`), including ``sim.branches``;
* ``run_finished`` -- experiment ids and total wall time.

Every line carries ``v`` (schema version), ``seq`` (0-based, strictly
increasing per journal) and ``ts`` (unix seconds).  Unknown *extra*
fields are allowed -- consumers must ignore what they do not know --
but missing required fields or wrong types fail validation.

``python -m repro.obs.journal PATH`` (or ``repro journal PATH``)
validates a journal and prints an event census; CI runs it over the
smoke-battery journal and uploads the file as a workflow artifact.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Bump when an event gains/loses *required* fields or changes meaning.
SCHEMA_VERSION = 1

_NUMBER = (int, float)

#: event -> {required field: expected type(s)}.  ``v``/``seq``/``ts``
#: are required on every event and checked separately.
EVENT_TYPES: Dict[str, Dict[str, Union[type, Tuple[type, ...]]]] = {
    "run_started": {
        "selection": list,
        "jobs": int,
        "mode": str,
        "scale": dict,
    },
    "warm_task": {"kind": str, "args": list, "ok": bool},
    "experiment_started": {"experiment": str, "mode": str},
    "experiment_finished": {
        "experiment": str,
        "mode": str,
        "duration_s": _NUMBER,
    },
    "experiment_failed": {"experiment": str, "error": str, "traceback": str},
    "experiment_retry": {
        "experiment": str,
        "attempt": int,
        "classification": str,
        "delay_s": _NUMBER,
    },
    "experiment_skipped": {"experiment": str, "source": str},
    "pool_recycled": {"reason": str},
    "run_resumed": {"journal": str, "skipped": list},
    "run_aborted": {"reason": str, "finished": list},
    "warning": {"message": str},
    "speculation_summary": {"experiment": str, "rows": list},
    "cache_stats": {
        "hits": int,
        "misses": int,
        "writes": int,
        "errors": int,
    },
    "metrics_snapshot": {
        "counters": dict,
        "timers": dict,
        "histograms": dict,
    },
    "run_finished": {"experiments": list, "duration_s": _NUMBER},
}

#: Events that must survive a SIGKILL immediately after being written:
#: ``--resume`` replays ``run_finished``/``run_aborted`` ledgers, the
#: chaos CI legs diff journals across kills, and a lost
#: ``experiment_failed`` tail would hide the very outcome the journal
#: exists to record.  These lines are fsync'd; everything else is only
#: flushed (per-event fsync would dominate the cost of small batteries).
TERMINAL_EVENTS = frozenset(
    {
        "run_finished",
        "run_aborted",
        "experiment_failed",
    }
)


class JournalValidationError(ValueError):
    """A journal line that does not satisfy the event schema."""


def validate_event(obj: Any) -> List[str]:
    """Schema problems with one decoded journal line ([] when valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"event must be a JSON object, got {type(obj).__name__}"]
    event = obj.get("event")
    if not isinstance(event, str):
        errors.append("missing or non-string 'event' field")
        return errors
    if event not in EVENT_TYPES:
        errors.append(f"unknown event type {event!r}")
        return errors
    if obj.get("v") != SCHEMA_VERSION:
        errors.append(f"'v' must be {SCHEMA_VERSION}, got {obj.get('v')!r}")
    if not isinstance(obj.get("seq"), int) or isinstance(obj.get("seq"), bool):
        errors.append("'seq' must be an integer")
    if not isinstance(obj.get("ts"), _NUMBER) or isinstance(obj.get("ts"), bool):
        errors.append("'ts' must be a number")
    for field_name, expected in EVENT_TYPES[event].items():
        if field_name not in obj:
            errors.append(f"{event}: missing required field {field_name!r}")
        elif not isinstance(obj[field_name], expected) or isinstance(
            obj[field_name], bool
        ) != (expected is bool):
            errors.append(
                f"{event}: field {field_name!r} has wrong type"
                f" {type(obj[field_name]).__name__}"
            )
    return errors


def _decoded_lines(
    lines: Iterable[str],
) -> Iterator[Tuple[int, Any, Optional[json.JSONDecodeError], List[str]]]:
    """``(line_number, obj, decode_error, problems)`` for every non-blank
    line, numbered from 1: a line that is not JSON has ``obj=None`` and
    its ``decode_error``, any other line its :func:`validate_event`
    ``problems``.  The one line decoder of the readers below."""
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as decode_error:
            yield line_number, None, decode_error, []
        else:
            yield line_number, obj, None, validate_event(obj)


def validate_lines(lines: Iterable[str]) -> Tuple[int, List[str]]:
    """Validate decoded-or-not journal lines.

    Returns ``(number_of_events, errors)``; errors are prefixed with
    their 1-based line number.  Sequence numbers must start at 0 and
    increase by 1.
    """
    errors: List[str] = []
    count = 0
    expected_seq = 0
    for line_number, obj, decode_error, problems in _decoded_lines(lines):
        count += 1
        if decode_error is not None:
            errors.append(f"line {line_number}: not valid JSON ({decode_error})")
            continue
        errors.extend(f"line {line_number}: {problem}" for problem in problems)
        seq = obj.get("seq") if isinstance(obj, dict) else None
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq != expected_seq:
                errors.append(
                    f"line {line_number}: seq {seq} out of order"
                    f" (expected {expected_seq})"
                )
            expected_seq = seq + 1
    return count, errors


def validate_journal(path: Union[str, Path]) -> Tuple[int, List[str]]:
    """Validate a journal file; ``(events, errors)`` like the above."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_lines(handle)


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Decode and *validate* a journal; raises
    :class:`JournalValidationError` on the first bad line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, obj, decode_error, problems in _decoded_lines(handle):
            if decode_error is not None:
                raise JournalValidationError(
                    f"{path}: line {line_number}: not valid JSON ({decode_error})"
                ) from decode_error
            if problems:
                raise JournalValidationError(
                    f"{path}: line {line_number}: {'; '.join(problems)}"
                )
            events.append(obj)
    return events


def read_journal_tolerant(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Decode as much of a journal as possible; never raises on content.

    A battery killed mid-write (SIGKILL, OOM, power loss) leaves a
    valid JSONL prefix and possibly one truncated final line.  Resume
    mode must read such journals, so this reader keeps every line that
    decodes and validates, and reports the rest as ``(events,
    problems)`` instead of raising.
    """
    events: List[Dict[str, Any]] = []
    skipped: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, obj, decode_error, problems in _decoded_lines(handle):
            if decode_error is not None:
                skipped.append(f"line {line_number}: truncated or invalid JSON")
            elif problems:
                skipped.append(f"line {line_number}: {'; '.join(problems)}")
            else:
                events.append(obj)
    return events, skipped


def finished_experiments(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Experiment ids with an ``experiment_finished`` event, in order.

    This is the checkpoint ledger resume mode replays: an experiment
    that *finished* (in any mode, including a prior resumed run) needs
    no re-execution if its checkpointed result is still in the artifact
    cache.
    """
    finished: List[str] = []
    for event in events:
        if event.get("event") in ("experiment_finished", "experiment_skipped"):
            experiment = event.get("experiment")
            if isinstance(experiment, str) and experiment not in finished:
                finished.append(experiment)
    return finished


class RunJournal:
    """Append-only JSONL event writer with schema enforcement.

    Opened against a path (truncating) or any text stream.  ``emit``
    stamps ``v``/``seq``/``ts``, validates the event against
    :data:`EVENT_TYPES` (so the harness can never write a journal its
    own validator rejects) and flushes, keeping the file readable while
    the battery is still running.  Event counts are tallied for the
    report's battery-performance section.
    """

    def __init__(self, target: Union[str, Path, io.TextIOBase]):
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self._stream = open(self.path, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self.path = None
            self._stream = target
            self._owns_stream = False
        self._seq = 0
        self.event_counts: Dict[str, int] = {}

    @property
    def events_written(self) -> int:
        return self._seq

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Write one event line; returns the full record written."""
        record: Dict[str, Any] = {
            "event": event,
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "ts": time.time(),
        }
        record.update(fields)
        problems = validate_event(record)
        if problems:
            raise JournalValidationError(
                f"refusing to write invalid {event!r} event: {'; '.join(problems)}"
            )
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        if event in TERMINAL_EVENTS:
            self._fsync()
        self._seq += 1
        self.event_counts[event] = self.event_counts.get(event, 0) + 1
        return record

    def _fsync(self) -> None:
        """Force the written prefix to disk (terminal events only).

        In-memory streams (tests pass ``io.StringIO``) have no file
        descriptor; durability is meaningless there, so the error is
        swallowed rather than special-cased at every call site.
        """
        try:
            os.fsync(self._stream.fileno())
        except (AttributeError, OSError, io.UnsupportedOperation):
            pass

    def close(self) -> None:
        if self._owns_stream and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullJournal:
    """The do-nothing journal used when ``--journal`` is not given.

    Mirrors the :class:`RunJournal` surface so callers never branch on
    journal presence.
    """

    path: Optional[Path] = None
    event_counts: Dict[str, int] = {}
    events_written = 0

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


#: Shared no-op instance; safe because it holds no state.
NULL_JOURNAL = NullJournal()


def coalesce(journal: Optional[Union[RunJournal, NullJournal]]):
    """``journal`` or the shared :data:`NULL_JOURNAL`."""
    return journal if journal is not None else NULL_JOURNAL


def summarize(path: Union[str, Path]) -> str:
    """Human-readable census of a journal file (used by ``repro journal``)."""
    count, errors = validate_journal(path)
    lines = [f"journal: {path}", f"events:  {count}"]
    if errors:
        lines.append(f"INVALID: {len(errors)} schema violations")
        lines.extend(f"  {error}" for error in errors[:20])
        if len(errors) > 20:
            lines.append(f"  ... and {len(errors) - 20} more")
        return "\n".join(lines)
    census: Dict[str, int] = {}
    for event in read_journal(path):
        census[event["event"]] = census.get(event["event"], 0) + 1
    for name in sorted(census):
        lines.append(f"  {name:20s} {census[name]:5d}")
    lines.append("schema:  valid")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin
    """``python -m repro.obs.journal PATH [PATH ...]`` -> validate."""
    import sys

    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.journal JOURNAL [JOURNAL ...]")
        return 2
    status = 0
    for path in paths:
        print(summarize(path))
        __, errors = validate_journal(path)
        if errors:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
