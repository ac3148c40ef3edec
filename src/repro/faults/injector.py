"""Deterministic fault injection: the chaos layer of the harness.

The injector evaluates the parsed :mod:`~repro.faults.spec` list at two
sites woven into the production code paths:

* the **experiment** site, hit by every supervised experiment attempt
  in a parallel worker (:mod:`repro.harness.parallel`), where
  ``crash``/``flaky`` raise :class:`InjectedCrash`, ``hang`` sleeps
  longer than any sane task timeout and ``slow`` adds bounded latency;
* the **cache** site, hit after every artifact-cache store
  (:mod:`repro.engine.cache`), where ``corrupt`` garbles the freshly
  written entry so the next load exercises the corrupt-artifact path.

Determinism is the design constraint: firing decisions depend only on
the spec string, the spec's position, and a monotonically claimed
*occurrence number* -- never on wall-clock time or shared RNG state.
Occurrences are claimed atomically across processes through marker
files in the state directory (``REPRO_FAULTS_STATE``; the supervisor
creates one for a parallel battery when none is set), so "fail once,
then succeed" keeps its meaning when the retry lands on a different
worker.  Specs and state directory come from the :mod:`repro.settings`
record.

Experiment-level faults fire only inside *supervised* workers: the
serial path is the recovery mechanism of last resort, and injecting a
crash into it would just take the battery down.  ``corrupt`` faults
fire in any process, because the cache self-heals by recomputing.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .. import settings
from ..obs.registry import REGISTRY
from .spec import FaultSpec

#: Bytes written over a cache entry by a fired ``corrupt`` fault; not a
#: valid pickle, so the next load takes the corruption path.
CORRUPTION_BYTES = b"\x00repro-injected-corruption\x00"


class InjectedFault(RuntimeError):
    """Base class for raised injected faults.

    Must pickle cleanly (single positional message arg): these
    exceptions cross the worker/parent process boundary, and an
    unpicklable exception would break the pool instead of failing one
    task.  ``kind``/``spec`` are decoration, set post-construction and
    lost in transit.
    """

    kind: Optional[str] = None
    spec: Optional[FaultSpec] = None


class InjectedCrash(InjectedFault):
    """Raised by a fired ``crash`` or ``flaky`` fault."""


class FaultRegistry:
    """Evaluates fault specs against injection sites.

    ``state_dir`` shares occurrence counters between processes; without
    one (pure in-process use) counting is process-local.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        state_dir: Optional[str] = None,
        sleep=time.sleep,
    ):
        self.specs: List[FaultSpec] = list(specs)
        self.state_dir = state_dir
        self._sleep = sleep
        self._local_counts: Dict[int, int] = {}
        self._claim_hints: Dict[int, int] = {}

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    # occurrence accounting
    # ------------------------------------------------------------------

    def _claim_occurrence(self, spec: FaultSpec) -> int:
        """Atomically claim the next occurrence number for ``spec``."""
        if self.state_dir is None:
            count = self._local_counts.get(spec.index, 0)
            self._local_counts[spec.index] = count + 1
            return count
        os.makedirs(self.state_dir, exist_ok=True)
        n = self._claim_hints.get(spec.index, 0)
        while True:
            marker = os.path.join(self.state_dir, f"spec{spec.index}.occ{n}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            self._claim_hints[spec.index] = n + 1
            return n

    @staticmethod
    def _coin(spec: FaultSpec, occurrence: int) -> bool:
        """Seeded, occurrence-indexed deterministic Bernoulli draw."""
        if spec.p is None:
            return True
        payload = f"{spec.seed}:{spec.index}:{occurrence}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < spec.p

    def _fires(self, spec: FaultSpec) -> bool:
        """Claim an occurrence for a matching spec; does it fire?"""
        occurrence = self._claim_occurrence(spec)
        if occurrence < spec.after:
            return False
        if spec.times is not None and occurrence >= spec.after + spec.times:
            return False
        return self._coin(spec, occurrence)

    def _record(self, spec: FaultSpec, target: str) -> None:
        REGISTRY.count("faults.injected")
        REGISTRY.record("faults.fired", spec.kind)
        REGISTRY.record("faults.targets", f"{spec.kind}:{target}")

    # ------------------------------------------------------------------
    # injection sites
    # ------------------------------------------------------------------

    def on_experiment(self, experiment_id: str) -> None:
        """The experiment site: raise or sleep per matching spec."""
        for spec in self.specs:
            if spec.site != "experiment":
                continue
            if not fnmatch.fnmatchcase(experiment_id, spec.experiment):
                continue
            if not self._fires(spec):
                continue
            self._record(spec, experiment_id)
            if spec.kind in ("crash", "flaky"):
                error = InjectedCrash(
                    f"injected {spec.kind} fault for experiment"
                    f" {experiment_id!r} ({spec.describe()})"
                )
                error.kind = spec.kind
                error.spec = spec
                raise error
            # hang / slow
            self._sleep(spec.seconds)

    def on_cache_store(self, artifact_kind: str, path: os.PathLike) -> bool:
        """The cache site: garble the stored entry if a corrupt spec fires."""
        corrupted = False
        for spec in self.specs:
            if spec.site != "cache":
                continue
            if not fnmatch.fnmatchcase(artifact_kind, spec.artifact):
                continue
            if not self._fires(spec):
                continue
            self._record(spec, artifact_kind)
            try:
                with open(path, "wb") as handle:
                    handle.write(CORRUPTION_BYTES)
                corrupted = True
            except OSError:
                pass
        return corrupted


# ----------------------------------------------------------------------
# process-wide active registry
# ----------------------------------------------------------------------

_ACTIVE: Optional[FaultRegistry] = None


def active_faults() -> FaultRegistry:
    """The process-wide registry for the installed settings record.

    Rebuilt, with fresh occurrence counters, only when the record's
    fault specs or state directory change.
    """
    global _ACTIVE
    record = settings.current()
    wanted = (record.faults, record.faults_state)
    if _ACTIVE is None or (tuple(_ACTIVE.specs), _ACTIVE.state_dir) != wanted:
        _ACTIVE = FaultRegistry(record.faults, state_dir=record.faults_state)
    return _ACTIVE


def reset_active_faults() -> None:
    """Forget the active registry; the next use rebuilds it."""
    global _ACTIVE
    _ACTIVE = None


def release_state_dir(state: str) -> None:
    """Tear down an occurrence-state directory the supervisor created.

    A leaked ledger made a second supervised battery in the same process
    inherit stale occurrence numbers, so a ``times=1`` fault that had
    already fired never fired again.  A ``REPRO_FAULTS_STATE`` ledger
    (CI chaos legs share one across a kill/resume pair) is never
    released.  Best-effort: only claim markers are removed, and the
    directory only if that empties it.  The registry needs no reset: it
    follows the record the supervisor restores.
    """
    root = Path(state)
    for marker in root.glob("spec*.occ*"):
        try:
            marker.unlink()
        except OSError:
            pass
    try:
        root.rmdir()
    except OSError:
        pass
