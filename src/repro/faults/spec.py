"""The ``REPRO_FAULTS`` spec grammar.

A fault configuration is a comma-separated list of *specs*; each spec
is a fault kind followed by colon-separated ``key=value`` parameters::

    REPRO_FAULTS = spec ( "," spec )*
    spec         = kind ( ":" key "=" value )*
    kind         = "crash" | "flaky" | "hang" | "slow" | "corrupt"

Examples::

    crash:experiment=tab3                  # every tab3 worker raises
    flaky:experiment=tab3                  # tab3 raises once, then works
    hang:experiment=fig6:times=1           # the first fig6 worker sleeps
    slow:experiment=*:seconds=0.2          # every experiment is delayed
    corrupt:artifact=trace:times=2         # garble two trace cache entries
    crash:experiment=tab*:p=0.5:seed=7     # seeded coin-flip per match

Parameters (all optional):

``experiment=<glob>``
    Which experiment ids the fault applies to (``fnmatch`` pattern,
    default ``*``).  Used by ``crash``/``flaky``/``hang``/``slow``.
``artifact=<glob>``
    Which artifact-cache *kinds* a ``corrupt`` fault garbles after a
    store (default ``*``).
``seconds=<float>``
    Sleep duration for ``hang`` (default 3600) and ``slow``
    (default 0.5).
``times=<int>``
    Maximum number of firings (default: 1 for ``flaky``, unlimited for
    everything else).
``after=<int>``
    Skip the first N matching occurrences (default 0).
``p=<float>`` / ``seed=<int>``
    Fire each eligible occurrence with probability ``p`` decided by a
    hash of ``(seed, spec index, occurrence)`` -- deterministic for a
    given seed, no RNG state involved (default: always fire, seed 0).

Occurrences are counted per spec across *all* processes of a run via
the shared state directory (see :mod:`repro.faults.injector`), so
``flaky`` means "the first attempt anywhere fails" even when the retry
lands on a different worker process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Recognised fault kinds.
KINDS: Tuple[str, ...] = ("crash", "flaky", "hang", "slow", "corrupt")

#: Default sleep seconds per sleeping kind.
DEFAULT_HANG_SECONDS = 3600.0
DEFAULT_SLOW_SECONDS = 0.5


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` string that does not parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: what fires, where, and how often."""

    kind: str
    index: int
    experiment: str = "*"
    artifact: str = "*"
    seconds: float = 0.0
    times: Optional[int] = None
    after: int = 0
    p: Optional[float] = None
    seed: int = 0

    @property
    def site(self) -> str:
        """The injection site this spec attaches to."""
        return "cache" if self.kind == "corrupt" else "experiment"

    def describe(self) -> str:
        if self.kind == "corrupt":
            selector = f"artifact={self.artifact}"
        else:
            selector = f"experiment={self.experiment}"
        bounds = "unbounded" if self.times is None else f"times={self.times}"
        return f"{self.kind}[{self.index}]:{selector}:{bounds}"


def _parse_int(key: str, value: str, spec: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise FaultSpecError(
            f"fault spec {spec!r}: {key}={value!r} is not an integer"
        ) from None
    if parsed < 0:
        raise FaultSpecError(f"fault spec {spec!r}: {key} must be >= 0")
    return parsed


def _parse_float(key: str, value: str, spec: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise FaultSpecError(
            f"fault spec {spec!r}: {key}={value!r} is not a number"
        ) from None
    if parsed < 0:
        raise FaultSpecError(f"fault spec {spec!r}: {key} must be >= 0")
    return parsed


def parse_spec(text: str, index: int) -> FaultSpec:
    """Parse one ``kind:key=value:...`` spec (raises :class:`FaultSpecError`)."""
    parts = [part.strip() for part in text.strip().split(":")]
    kind = parts[0]
    if kind not in KINDS:
        raise FaultSpecError(
            f"fault spec {text!r}: unknown kind {kind!r}"
            f" (expected one of {', '.join(KINDS)})"
        )
    params = {}
    for part in parts[1:]:
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise FaultSpecError(
                f"fault spec {text!r}: parameter {part!r} is not key=value"
            )
        params[key.strip()] = value.strip()

    known = {
        "experiment",
        "artifact",
        "seconds",
        "times",
        "after",
        "p",
        "seed",
    }
    unknown = sorted(set(params) - known)
    if unknown:
        raise FaultSpecError(
            f"fault spec {text!r}: unknown parameter(s) {', '.join(unknown)}"
        )

    seconds = DEFAULT_HANG_SECONDS if kind == "hang" else DEFAULT_SLOW_SECONDS
    if "seconds" in params:
        seconds = _parse_float("seconds", params["seconds"], text)
    times: Optional[int] = 1 if kind == "flaky" else None
    if "times" in params:
        times = _parse_int("times", params["times"], text)
    p: Optional[float] = None
    if "p" in params:
        p = _parse_float("p", params["p"], text)
        if p > 1.0:
            raise FaultSpecError(f"fault spec {text!r}: p must be <= 1")
    return FaultSpec(
        kind=kind,
        index=index,
        experiment=params.get("experiment", "*"),
        artifact=params.get("artifact", "*"),
        seconds=seconds,
        times=times,
        after=_parse_int("after", params["after"], text) if "after" in params else 0,
        p=p,
        seed=_parse_int("seed", params["seed"], text) if "seed" in params else 0,
    )


def parse_specs(text: str) -> List[FaultSpec]:
    """Parse a full ``REPRO_FAULTS`` value into an ordered spec list."""
    specs: List[FaultSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        specs.append(parse_spec(chunk, index=len(specs)))
    return specs
