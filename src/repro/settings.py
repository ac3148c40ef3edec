"""Every ``REPRO_*`` knob, parsed once into one frozen record.

This is the only module that reads the environment.  :func:`from_env`
parses the twelve variables into a :class:`Settings` record, and
:func:`current` returns the record installed in this process, parsing
``os.environ`` on first use.  The CLI merges its flags over that record;
a pool's initializer installs the parent's record in every worker, so
nothing writes the environment to reach them.  The artifact cache and
the fault registry follow the installed record.

A malformed value of a knob that changes only *how* the battery runs
falls back on the default: the record lists it in ``ignored`` and the
parse announces it on stderr.  A malformed ``REPRO_BACKEND`` or
``REPRO_FAULTS`` would compute something other than what was asked, so
it raises :class:`SettingsError`.  ``docs/robustness.md`` ("Knobs, in
one place") lists every knob with its flag, default and precedence.

No other ``repro`` module is imported at module level: the modules that
read the record are imported by the ones the parsers need.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple

#: Additional attempts after the first failure of an experiment.
DEFAULT_RETRIES = 2
#: Base of the deterministic exponential backoff (seconds).
DEFAULT_BACKOFF_S = 0.25

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"0", "false", "no", "off"})


class SettingsError(ValueError):
    """A ``REPRO_BACKEND`` or ``REPRO_FAULTS`` value that does not parse."""


def timeout_or_off(value: Optional[float]) -> Optional[float]:
    """A task timeout in seconds, or None (off) unless finite and > 0."""
    if value is None or not 0 < value < math.inf:
        return None
    return value


@dataclass(frozen=True)
class Settings:
    """One process's ``REPRO_*`` knobs; picklable, so spawn workers get it.

    ``backend``, ``segment_instructions`` (0 disables) and ``jobs`` are
    honoured by the CLI only.  ``task_timeout`` ``None`` is off.
    ``faults`` holds the parsed :class:`~repro.faults.spec.FaultSpec` list.
    ``ignored`` lists ``(variable, value)`` for every malformed knob that
    fell back on its default.
    """

    cache_dir: Path
    cache_enabled: bool = True
    backend: Optional[str] = None
    segment_instructions: Optional[int] = None
    jobs: int = 1
    task_timeout: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    faults: Tuple[Any, ...] = ()
    faults_state: Optional[str] = None
    vector: bool = True
    pipeline_fast: bool = True
    ignored: Tuple[Tuple[str, str], ...] = ()

    def warnings(self) -> List[Tuple[str, str]]:
        """``(variable, message)`` announcing each ignored value."""
        return [
            (name, f"repro: ignoring unparseable {name}={raw!r}")
            for name, raw in self.ignored
        ]


def _boolean(raw: str) -> bool:
    value = raw.lower()
    if value not in _TRUE_VALUES | _FALSE_VALUES:
        raise ValueError(raw)
    return value in _TRUE_VALUES


def _integer(minimum: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(raw)
        return value

    return parse


def _backoff(raw: str) -> float:
    value = float(raw)
    if not 0 <= value < math.inf:
        raise ValueError(raw)
    return value


def _backend(raw: str) -> str:
    from .pipeline.backends import normalize_backend

    return normalize_backend(raw)


def _faults(raw: str) -> Tuple[Any, ...]:
    from .faults.spec import parse_specs

    return tuple(parse_specs(raw))


#: Variable, field and parser.  A parser raises ``ValueError`` for a
#: malformed value, or one the matching flag rejects.
_KNOBS = (
    ("REPRO_JOBS", "jobs", _integer(1)),
    ("REPRO_TASK_TIMEOUT", "task_timeout", lambda raw: timeout_or_off(float(raw))),
    ("REPRO_TASK_RETRIES", "retries", _integer(0)),
    ("REPRO_RETRY_BACKOFF", "backoff_s", _backoff),
    ("REPRO_SEGMENT_INSTRUCTIONS", "segment_instructions", _integer(0)),
    ("REPRO_CACHE", "cache_enabled", _boolean),
    ("REPRO_VECTOR", "vector", _boolean),
    ("REPRO_PIPELINE_FAST", "pipeline_fast", _boolean),
    ("REPRO_BACKEND", "backend", _backend),
    ("REPRO_FAULTS", "faults", _faults),
    ("REPRO_FAULTS_STATE", "faults_state", str),
    ("REPRO_CACHE_DIR", "cache_dir", Path),
)

#: Knobs whose malformed value is an error rather than ignored.
_STRICT = frozenset({"REPRO_BACKEND", "REPRO_FAULTS"})


def from_env(environ: Optional[Mapping[str, str]] = None) -> Settings:
    """Parse the ``REPRO_*`` variables of ``environ`` (default ``os.environ``).

    An empty value means the default; see the module docstring for a
    malformed one.
    """
    env = os.environ if environ is None else environ
    fields = {}
    ignored = []
    for name, field, parse in _KNOBS:
        raw = env.get(name, "").strip()
        if not raw:
            continue
        try:
            fields[field] = parse(raw)
        except ValueError as error:
            if name in _STRICT:
                raise SettingsError(f"invalid {name}={raw!r}: {error}") from None
            ignored.append((name, raw))
    if "cache_dir" not in fields:
        xdg = env.get("XDG_CACHE_HOME", "").strip()
        fields["cache_dir"] = (Path(xdg) if xdg else Path.home() / ".cache") / "repro"
    record = Settings(ignored=tuple(ignored), **fields)
    for __, message in record.warnings():
        print(message, file=sys.stderr)
    return record


_INSTALLED: Optional[Settings] = None


def current() -> Settings:
    """The installed record; the first use parses ``os.environ``.

    Nothing re-parses the environment behind an installed record.
    """
    global _INSTALLED
    if _INSTALLED is None:
        _INSTALLED = from_env()
    return _INSTALLED


def install(record: Settings) -> None:
    """Make ``record`` this process's settings."""
    global _INSTALLED
    _INSTALLED = record


@contextlib.contextmanager
def installed(record: Settings) -> Iterator[Settings]:
    """Install ``record`` for a ``with`` block, then restore the old one."""
    previous = current()
    install(record)
    try:
        yield record
    finally:
        install(previous)
