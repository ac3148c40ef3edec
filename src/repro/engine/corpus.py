"""Workload corpus with in-process *and* on-disk caching.

Generating and functionally executing a workload is the most expensive
shared step of every trace-driven experiment, and its result (the
committed branch stream) is identical across experiments.  This module
memoises programs per (workload, iterations) in process, and backs the
traced run with the persistent artifact cache
(:mod:`repro.engine.cache`) so the cost is paid once per machine, not
once per process -- which is what makes parallel workers and repeated
pytest/benchmark sessions cheap.
"""

from __future__ import annotations

import hashlib
import time
from functools import lru_cache
from typing import Optional

from ..isa import Program
from ..pipeline.decode import decoded_run
from ..workloads import generate_program, get_profile
from .cache import get_cache
from .measure import record_trace_generation
from .tracer import TracedRun, trace_branches


@lru_cache(maxsize=64)
def profile_fingerprint(name: str) -> str:
    """Stable digest of a workload profile's full definition.

    Cache keys embed this so editing a profile (sites, guards, seeds)
    invalidates every artifact derived from it without a salt bump.
    """
    profile = get_profile(name)
    return hashlib.sha256(repr(profile).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=64)
def workload_program(name: str, iterations: Optional[int] = None) -> Program:
    """The assembled program of workload ``name`` (cached in process)."""
    return generate_program(get_profile(name), iterations=iterations)


def _trace_workload(name: str, iterations: Optional[int]) -> TracedRun:
    started = time.perf_counter()
    # the pipeline decodes the same program through this memo: share it
    run = trace_branches(
        workload_program(name, iterations), decoded=decoded_run(name, iterations)
    )
    record_trace_generation(
        branches=run.stats.branches, seconds=time.perf_counter() - started
    )
    return run


@lru_cache(maxsize=64)
def workload_run(name: str, iterations: Optional[int] = None) -> TracedRun:
    """The committed branch stream of workload ``name``.

    Memoised in process and persisted in the artifact cache, keyed by
    the profile fingerprint and the iteration count.
    """
    return get_cache().cached(
        "trace",
        lambda: _trace_workload(name, iterations),
        workload=name,
        iterations=iterations,
        profile=profile_fingerprint(name),
    )


def clear_cache() -> None:
    """Drop memoised programs/traces (tests use this to bound memory)."""
    # imported here: columnar imports this module inside columnar_run
    from .columnar import clear_columnar_cache

    workload_program.cache_clear()
    workload_run.cache_clear()
    profile_fingerprint.cache_clear()
    clear_columnar_cache()
