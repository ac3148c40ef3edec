"""Unified metrics registry: named counters, timers and histograms.

One process-wide :data:`REGISTRY` replaces ad-hoc globals
(``repro.engine.measure.record_simulation`` reports straight into the
registry).  Three metric families cover everything the harness wants
to account:

* **counters** -- monotonically accumulated floats (``sim.branches``);
* **timers** -- accumulated seconds plus an observation count
  (``sim.replay``, ``experiment.tab2``);
* **histograms** -- string-keyed counted buckets (hot branch PCs,
  warm-task kinds).

The snapshot / delta / merge triple mirrors what the artifact cache
does for its hit statistics, and is what makes parallel runs account
identically to serial ones: a worker snapshots the registry before a
task, computes the delta afterwards, ships the (picklable)
:class:`MetricsSnapshot` back, and the parent folds it in with
:meth:`MetricsRegistry.merge`.  All rendering orders keys
lexicographically, so two runs doing the same work produce identical
``metrics_snapshot`` journal events regardless of scheduling.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class TimerStat:
    """Accumulated wall time and number of observations for one timer."""

    seconds: float = 0.0
    count: int = 0

    def add(self, seconds: float, count: int = 1) -> None:
        self.seconds += seconds
        self.count += count

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.count if self.count else 0.0

    def copy(self) -> "TimerStat":
        return TimerStat(seconds=self.seconds, count=self.count)


@dataclass
class MetricsSnapshot:
    """A frozen, picklable view of a registry's contents.

    Snapshots are value objects: workers ship them across process
    boundaries, deltas between two snapshots describe one task's work,
    and :meth:`MetricsRegistry.merge` folds them back into a live
    registry.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, TimerStat] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Dict]:
        """JSON-ready rendering with deterministic (sorted) key order."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "timers": {
                name: {
                    "seconds": self.timers[name].seconds,
                    "count": self.timers[name].count,
                }
                for name in sorted(self.timers)
            },
            "histograms": {
                name: {
                    key: self.histograms[name][key]
                    for key in sorted(self.histograms[name])
                }
                for name in sorted(self.histograms)
            },
        }


class MetricsRegistry:
    """Mutable store behind the module-level :data:`REGISTRY`."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def observe_seconds(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``seconds`` of wall time into the timer ``name``."""
        self._timers.setdefault(name, TimerStat()).add(seconds, count)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager timing its body into timer ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe_seconds(name, time.perf_counter() - started)

    def record(self, name: str, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to bucket ``key`` of histogram ``name``."""
        buckets = self._histograms.setdefault(name, {})
        buckets[key] = buckets.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def timer_value(self, name: str) -> TimerStat:
        stat = self._timers.get(name)
        return stat.copy() if stat is not None else TimerStat()

    def histogram_value(self, name: str) -> Dict[str, float]:
        return dict(self._histograms.get(name, {}))

    def top(self, name: str, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` largest buckets of histogram ``name``.

        Sorted by count descending, then key ascending, so the order is
        deterministic even across tied buckets.
        """
        buckets = self._histograms.get(name, {})
        ranked = sorted(buckets.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    # ------------------------------------------------------------------
    # snapshot / delta / merge (the parallel-scheduler contract)
    # ------------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self._counters),
            timers={name: stat.copy() for name, stat in self._timers.items()},
            histograms={
                name: dict(buckets) for name, buckets in self._histograms.items()
            },
        )

    def since(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """The delta accumulated after ``earlier`` was taken.

        Zero-valued entries are dropped so a delta only names metrics
        the interval actually touched.
        """
        counters = {}
        for name, value in self._counters.items():
            delta = value - earlier.counters.get(name, 0.0)
            if delta:
                counters[name] = delta
        timers = {}
        for name, stat in self._timers.items():
            base = earlier.timers.get(name, TimerStat())
            delta_stat = TimerStat(
                seconds=stat.seconds - base.seconds, count=stat.count - base.count
            )
            if delta_stat.seconds or delta_stat.count:
                timers[name] = delta_stat
        histograms = {}
        for name, buckets in self._histograms.items():
            base_buckets = earlier.histograms.get(name, {})
            delta_buckets = {}
            for key, value in buckets.items():
                delta = value - base_buckets.get(key, 0.0)
                if delta:
                    delta_buckets[key] = delta
            if delta_buckets:
                histograms[name] = delta_buckets
        return MetricsSnapshot(
            counters=counters, timers=timers, histograms=histograms
        )

    def merge(self, delta: MetricsSnapshot) -> None:
        """Fold a (worker's) snapshot delta into this registry."""
        for name, value in delta.counters.items():
            self.count(name, value)
        for name, stat in delta.timers.items():
            self.observe_seconds(name, stat.seconds, stat.count)
        for name, buckets in delta.histograms.items():
            for key, value in buckets.items():
                self.record(name, key, value)

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------

    def discard(self, name: str) -> None:
        """Forget one metric (any family) entirely."""
        self._counters.pop(name, None)
        self._timers.pop(name, None)
        self._histograms.pop(name, None)

    def reset(self) -> None:
        """Forget every metric (tests use this for isolation)."""
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()

    def as_dict(self) -> Dict[str, Dict]:
        return self.snapshot().as_dict()


#: The process-wide registry.  Parallel workers inherit (fork) or
#: recreate (spawn) their own instance; deltas travel back explicitly.
REGISTRY = MetricsRegistry()


def get_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """``registry`` if given, else the process-wide instance."""
    return registry if registry is not None else REGISTRY
