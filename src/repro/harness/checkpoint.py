"""Experiment-result checkpoints: what ``repro run --resume`` replays.

Every finished experiment is checkpointed into the artifact cache
(kind ``checkpoint``) keyed by its id and the exact scale it ran at, by
both the serial and the parallel paths, *as it finishes* -- so a
battery killed halfway leaves one checkpoint per completed experiment.
Resume mode (:func:`repro.harness.runner.run_all` with ``resume=``)
reads the prior run's journal for ``experiment_finished`` events and
loads the matching checkpoints instead of re-running; a checkpoint that
is missing or corrupt simply demotes the experiment back to "run it
again", so resume can never produce different output than a fresh run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

from ..engine import cache as artifact_cache
from ..engine import profile_fingerprint
from ..obs.registry import REGISTRY
from .experiments import ExperimentResult, Scale
from .spec import SPECS

CHECKPOINT_KIND = "checkpoint"


def spec_fingerprint(experiment_id: str, scale: Scale) -> str:
    """Digest of an experiment's declared inputs at one scale.

    Covers the spec's artifact dependency declarations, the profile
    fingerprints of the workloads it will run over, *and* the scale's
    simulation budgets (iterations, pipeline instruction budget,
    segment size), so a checkpoint goes stale when an experiment starts
    depending on different artifacts, a workload profile changes, or
    the budgets it was measured under change -- ``--resume`` after a
    scale bump must re-run, never silently reuse a smaller-budget
    result.  Unregistered ids hash to a constant, keeping the key
    stable for ad-hoc experiment functions.
    """
    spec = SPECS.get(experiment_id)
    payload = {
        "deps": [list(dep.key_parts()) for dep in spec.deps]
        if spec is not None
        else [],
        "profiles": {
            workload: profile_fingerprint(workload)
            for workload in scale.workloads
        },
        "budgets": {
            "iterations": scale.iterations,
            "pipeline_instructions": scale.pipeline_instructions,
            "segment_instructions": scale.segment_instructions,
            "backend": scale.backend,
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def checkpoint_key(cache: artifact_cache.ArtifactCache, experiment_id: str, scale: Scale) -> str:
    return cache.key(
        CHECKPOINT_KIND,
        experiment=experiment_id,
        iterations=scale.iterations,
        pipeline_instructions=scale.pipeline_instructions,
        workloads=list(scale.workloads),
        fingerprint=spec_fingerprint(experiment_id, scale),
    )


def store_checkpoint(
    experiment_id: str, scale: Scale, result: ExperimentResult
) -> None:
    """Persist one finished experiment's result (no-op when cache off,
    or when the cache already holds a checkpoint under its key: the key
    covers every input, so a warm rerun writes nothing)."""
    cache = artifact_cache.get_cache()
    if not cache.enabled:
        return
    key = checkpoint_key(cache, experiment_id, scale)
    if cache.path_for(key).exists():
        return
    cache.store(key, result)
    REGISTRY.count("supervisor.checkpoints_stored")


def load_checkpoint(
    experiment_id: str, scale: Scale
) -> Tuple[bool, Optional[ExperimentResult]]:
    """``(hit, result)`` for a previously checkpointed experiment.

    An entry that does not unpickle to an :class:`ExperimentResult` is
    dropped, as :meth:`~repro.engine.cache.ArtifactCache.load` drops a
    corrupt one, so the re-run's :func:`store_checkpoint` replaces it.
    """
    cache = artifact_cache.get_cache()
    if not cache.enabled:
        return False, None
    key = checkpoint_key(cache, experiment_id, scale)
    hit, value = cache.load(key)
    if hit and not isinstance(value, ExperimentResult):
        # a poisoned entry must not masquerade as a result
        try:
            cache.path_for(key).unlink()
        except OSError:
            pass
        return False, None
    if hit:
        REGISTRY.count("supervisor.checkpoints_loaded")
    return hit, value
