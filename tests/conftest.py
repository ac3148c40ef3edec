"""Shared fixtures: small, cached workload runs for fast tests."""

import os
from dataclasses import replace

import pytest

from repro import settings
from repro.engine import cache as artifact_cache
from repro.engine import trace_branches, workload_program
from repro.isa import assemble

#: Iteration count used by the test-scale workload runs.
TEST_ITERATIONS = 60


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the artifact cache at a per-session directory.

    Tests still exercise the on-disk cache (within the session), but
    never read artifacts left behind by other runs or other checkouts.
    An explicitly exported ``REPRO_CACHE_DIR`` is honoured.
    """
    if not os.environ.get("REPRO_CACHE_DIR"):
        artifact_cache.configure(
            root=tmp_path_factory.mktemp("artifact-cache"), enabled=True
        )
    yield


@pytest.fixture()
def knobs():
    """Arm ``REPRO_*`` knobs by installing a settings record.

    ``knobs(field=value, ...)`` installs the current record with those
    fields changed; every field a test changed is restored afterwards.
    """
    saved = {}

    def arm(**changes):
        record = settings.current()
        for name in changes:
            saved.setdefault(name, getattr(record, name))
        settings.install(replace(record, **changes))

    yield arm
    if saved:
        settings.install(replace(settings.current(), **saved))


@pytest.fixture(scope="session")
def compress_program():
    return workload_program("compress", TEST_ITERATIONS)


@pytest.fixture(scope="session")
def compress_trace(compress_program):
    return trace_branches(compress_program).trace


@pytest.fixture(scope="session")
def gcc_trace():
    return trace_branches(workload_program("gcc", TEST_ITERATIONS)).trace


@pytest.fixture()
def tiny_loop_program():
    """A hand-written 10-iteration counted loop (1 branch site)."""
    return assemble(
        """
        start:  li r1, 10
        loop:   addi r2, r2, 1
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        """
    )


@pytest.fixture()
def alternating_program():
    """A branch that alternates taken/not-taken for 40 visits."""
    return assemble(
        """
        start:  li r1, 40
        loop:   xori r3, r3, 1
                beq r3, r0, skip
                addi r4, r4, 1
        skip:   addi r1, r1, -1
                bne r1, r0, loop
                halt
        """
    )
