"""Segmented pipeline execution: byte-identity, snapshots, resume.

The acceptance bar: a pipeline cell run as a chain of checkpointable
segments must be *indistinguishable* -- stats, distance counts, every
column of the reference engine's branch log, quadrant counts, final
machine and predictor state -- from the same cell run in one piece.  That must hold in the
fast and the slow run loop, for the gating/eager simulator subclasses,
across pickle round trips at every boundary (what a cross-process
resume actually does), and for arbitrary split points (hypothesis).
The chaos leg SIGKILLs a real ``repro run-all`` mid-segment and proves
``--resume`` restarts mid-cell to a byte-identical report.
"""

import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import JRSEstimator, SaturatingCountersEstimator
from repro.engine import cache as artifact_cache
from repro.engine import clear_cache, workload_program
from repro.harness import SMOKE, clear_memoised, render_report, run_all
from repro.harness.shard import (
    _simulator_at,
    build_cell_simulator,
    run_segmented,
    segment_count,
    segment_parts,
    segment_targets,
    segmentation_active,
    warm_segment,
)
from repro.isa.machine import _MISSING
from repro.obs.journal import RunJournal, read_journal
from repro.pipeline import (
    SNAPSHOT_SCHEMA,
    PipelineConfig,
    PipelineSimulator,
    SnapshotError,
    capture_snapshot,
    restore_snapshot,
)
from repro.predictors import make_predictor
from repro.speculation.dualpath import EagerPipelineSimulator
from repro.speculation.gating import GatedPipelineSimulator

#: Committed-instruction budget of the identity matrix: long enough
#: that every workload loops, short enough to keep the matrix cheap.
TOTAL = 5_000
ITERATIONS = 40


def build(cls=PipelineSimulator, workload="compress", predictor="gshare",
          fast=True, with_estimators=False, iterations=ITERATIONS, **kwargs):
    """A fresh simulator wired exactly like the harness builds them."""
    program = workload_program(workload, iterations)
    predictor_obj = make_predictor(predictor)
    estimators = {}
    if with_estimators:
        estimators = {
            "jrs": JRSEstimator(threshold=15, enhanced=True),
            "satcnt": SaturatingCountersEstimator.for_predictor(predictor_obj),
        }
    return cls(
        program,
        predictor_obj,
        config=PipelineConfig(),
        estimators=estimators,
        fast=fast,
        **kwargs,
    )


def digest(simulator, result):
    """Every observable of a finished cell, as one comparable value.

    Covers the full :class:`BranchRecordStore` column set (all 11
    fields; empty when the fused engine ran), the stats block, the
    distance counts, both quadrant maps, the architectural machine
    state, and the predictor's internal tables -- anything that could
    diverge if a segment boundary perturbed the simulation.
    """
    records = simulator.records
    columns = (
        list(records.sequence),
        list(records.pc),
        list(records.predicted_taken),
        list(records.actual_taken),
        list(records.fetch_cycle),
        list(records.resolve_cycle),
        list(records.committed),
        list(records.precise_distance),
        list(records.perceived_distance),
        list(records.wrong_path),
        list(records.assessments),
    )
    machine = simulator.machine
    return (
        columns,
        vars(result.stats).copy(),
        list(machine.regs),
        dict(machine.memory),
        machine.pc,
        machine.halted,
        machine.instructions_retired,
        {n: vars(q).copy() for n, q in result.quadrants_committed.items()},
        {n: vars(q).copy() for n, q in result.quadrants_all.items()},
        pickle.dumps(simulator.predictor),
        result.distances,
    )


def run_whole(**build_kwargs):
    simulator = build(**build_kwargs)
    return digest(simulator, simulator.run(max_instructions=TOTAL))


def run_split(stops, roundtrip=False, **build_kwargs):
    """Run the same cell paused at ``stops``, optionally pickling the
    paused simulator at every boundary (the cross-process resume)."""
    simulator = build(**build_kwargs)
    for stop in stops:
        simulator.run(max_instructions=TOTAL, stop_instructions=stop)
        if roundtrip:
            simulator = pickle.loads(pickle.dumps(simulator))
    return digest(simulator, simulator.run(max_instructions=TOTAL))


STOPS = (700, 1400, 2100, 2800, 3500, 4200)


class TestSegmentedIdentity:
    @pytest.mark.parametrize("workload", ["compress", "gcc"])
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("with_estimators", [False, True])
    def test_plain_cell_identical(self, workload, fast, with_estimators):
        kwargs = dict(
            workload=workload, fast=fast, with_estimators=with_estimators
        )
        assert run_whole(**kwargs) == run_split(STOPS, **kwargs)

    def test_other_predictors_identical(self):
        for predictor in ("mcfarling", "sag"):
            kwargs = dict(predictor=predictor, with_estimators=True)
            assert run_whole(**kwargs) == run_split(STOPS, **kwargs)

    @pytest.mark.parametrize("fast", [True, False])
    def test_gating_subclass_identical(self, fast):
        kwargs = dict(
            cls=GatedPipelineSimulator,
            fast=fast,
            with_estimators=True,
            gate_on="jrs",
        )
        assert run_whole(**kwargs) == run_split(
            STOPS, roundtrip=True, **kwargs
        )

    @pytest.mark.parametrize("fast", [True, False])
    def test_eager_subclass_identical(self, fast):
        kwargs = dict(
            cls=EagerPipelineSimulator,
            fast=fast,
            with_estimators=True,
            fork_on="jrs",
        )
        assert run_whole(**kwargs) == run_split(
            STOPS, roundtrip=True, **kwargs
        )

    def test_pickle_roundtrip_at_every_boundary(self):
        kwargs = dict(with_estimators=True)
        assert run_whole(**kwargs) == run_split(
            STOPS, roundtrip=True, **kwargs
        )


#: One whole-run reference per hypothesis session, computed lazily so
#: collection stays fast.
_REFERENCE = {}


class TestRandomSplitPoints:
    @settings(max_examples=15, deadline=None)
    @given(
        stops=st.lists(
            st.integers(min_value=1, max_value=TOTAL - 1),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    def test_any_split_schedule_is_identical(self, stops):
        """Segment boundaries are soft: *any* ascending set of split
        points (boundary collisions, off-by-one from a commit-width
        overshoot, a stop in the first cycle) leaves the run
        untouched."""
        if "whole" not in _REFERENCE:
            _REFERENCE["whole"] = run_whole(with_estimators=True)
        assert (
            run_split(sorted(stops), roundtrip=True, with_estimators=True)
            == _REFERENCE["whole"]
        )


class TestSnapshotFormat:
    def _paused(self):
        simulator = build()
        simulator.run(max_instructions=TOTAL, stop_instructions=1500)
        return simulator

    def test_capture_restore_roundtrip(self):
        simulator = self._paused()
        snapshot = capture_snapshot(simulator)
        assert snapshot.schema == SNAPSHOT_SCHEMA
        assert snapshot.committed_instructions == (
            simulator.stats.committed_instructions
        )
        restored = restore_snapshot(snapshot)
        a = simulator.run(max_instructions=TOTAL)
        b = restored.run(max_instructions=TOTAL)
        assert digest(simulator, a) == digest(restored, b)

    def test_capture_does_not_alias_live_state(self):
        """Running the source simulator on must not mutate the frozen
        snapshot: restoring later still resumes from the boundary."""
        simulator = self._paused()
        snapshot = capture_snapshot(simulator)
        committed_at_capture = snapshot.committed_instructions
        simulator.run(max_instructions=TOTAL)
        restored = restore_snapshot(snapshot)
        assert (
            restored.stats.committed_instructions == committed_at_capture
        )

    def test_schema_mismatch_raises(self):
        snapshot = capture_snapshot(self._paused())
        stale = replace(snapshot, schema="pipeline-snapshot/0")
        with pytest.raises(SnapshotError):
            restore_snapshot(stale)

    def test_garbled_payload_raises(self):
        snapshot = capture_snapshot(self._paused())
        garbled = replace(snapshot, payload=b"\x00not a pickle\x00")
        with pytest.raises(SnapshotError):
            restore_snapshot(garbled)

    def test_committed_count_mismatch_raises(self):
        snapshot = capture_snapshot(self._paused())
        lying = replace(
            snapshot,
            committed_instructions=snapshot.committed_instructions + 1,
        )
        with pytest.raises(SnapshotError):
            restore_snapshot(lying)

    def test_payload_does_not_grow_with_the_run(self):
        """A fused run keeps no per-branch state, so a snapshot late in
        a run is about as large as an early one."""
        simulator = build(iterations=200)
        sizes = []
        for stop in (2_000, 16_000):
            simulator.run(max_instructions=16_000, stop_instructions=stop)
            sizes.append(len(capture_snapshot(simulator).payload))
        assert simulator.stats.committed_instructions == 16_000
        assert abs(sizes[1] - sizes[0]) < 4096, sizes

    def test_missing_sentinel_survives_pickling(self):
        """The machine's undo-log sentinel is compared by identity;
        a pickled snapshot must resolve back to the module singleton."""
        assert pickle.loads(pickle.dumps(_MISSING)) is _MISSING
        assert (
            pickle.loads(pickle.dumps({"entry": (_MISSING, 3)}))["entry"][0]
            is _MISSING
        )


class TestSegmentPlanning:
    def test_targets_split_with_final_remainder(self):
        assert segment_targets(100, 30) == [30, 60, 90, 100]
        assert segment_targets(90, 30) == [30, 60, 90]
        assert segment_targets(100, 100) == [100]
        assert segment_targets(100, 1000) == [100]

    def test_segment_count(self):
        assert segment_count(100, 30) == 3
        assert segment_count(90, 30) == 2
        assert segment_count(100, None) == 0
        assert segment_count(100, 0) == 0
        assert segment_count(100, 100) == 0

    def test_segmentation_active(self):
        assert segmentation_active(100, 30)
        assert not segmentation_active(100, None)
        assert not segmentation_active(100, 0)
        assert not segmentation_active(100, 100)
        assert not segmentation_active(None, 30)

    def test_segment_parts_cover_the_inputs(self):
        parts = segment_parts("compress", "gshare", 40, 5000, 1000, 2)
        assert parts["schema"] == SNAPSHOT_SCHEMA
        assert parts["segment"] == 2
        assert parts["segment_instructions"] == 1000
        # a changed workload profile or pipeline config mints new keys
        assert "profile" in parts and "config" in parts


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


def _segment_files(cache):
    return sorted(Path(cache.root).glob("pipeline-segment-*.pkl"))


class TestRunSegmented:
    CELL = ("compress", "gshare", ITERATIONS, TOTAL)

    def test_matches_whole_run_and_stores_chain(self, isolated_cache):
        whole = run_segmented(*self.CELL, None)
        simulator = build()
        reference = digest(simulator, simulator.run(max_instructions=TOTAL))
        segmented = run_segmented(*self.CELL, 1000)
        chain = segment_count(TOTAL, 1000)
        assert chain == 4
        assert len(_segment_files(isolated_cache)) == chain
        # results identical across whole, segmented and direct runs
        assert vars(whole.stats) == vars(segmented.stats)
        assert whole.distances == segmented.distances == reference[-1]
        # ... down to the whole state of the simulators behind them:
        # the whole run's, and the stored chain's resumed to the budget
        # (fused runs, so neither logged a branch)
        whole_simulator = build_cell_simulator(*self.CELL[:3])
        whole_result = whole_simulator.run(max_instructions=TOTAL)
        segmented_simulator = _simulator_at(*self.CELL, 1000, chain - 1)
        segmented_result = segmented_simulator.run(max_instructions=TOTAL)
        assert (
            digest(whole_simulator, whole_result)
            == digest(segmented_simulator, segmented_result)
            == reference
        )
        assert len(whole_simulator.records) == len(segmented_simulator.records) == 0

    def test_partial_chain_resumes_mid_cell(self, isolated_cache):
        """A killed run leaves segments 0..k: the next run restores the
        furthest snapshot and only simulates the remainder."""
        whole = run_segmented(*self.CELL, None)
        warm_segment(*self.CELL, 1000, 1)  # segments 0 and 1 on disk
        assert len(_segment_files(isolated_cache)) == 2
        before = {
            path: path.stat().st_mtime_ns
            for path in _segment_files(isolated_cache)
        }
        resumed = run_segmented(*self.CELL, 1000)
        after = {
            path: path.stat().st_mtime_ns
            for path in _segment_files(isolated_cache)
        }
        # the pre-kill segments were reused, not recomputed
        for path, stamp in before.items():
            assert after[path] == stamp
        assert len(after) == segment_count(TOTAL, 1000)
        assert vars(whole.stats) == vars(resumed.stats)

    def test_corrupt_snapshot_falls_back_one_boundary(self, isolated_cache):
        whole = run_segmented(*self.CELL, None)
        run_segmented(*self.CELL, 1000)
        # garble the furthest snapshot: an unreadable pickle
        files = _segment_files(isolated_cache)
        files[-1].write_bytes(b"\x00garbage\x00")
        clear_memoised()
        again = run_segmented(*self.CELL, 1000)
        assert vars(whole.stats) == vars(again.stats)

    def test_stale_schema_snapshot_falls_back(self, isolated_cache):
        """A snapshot from a different schema version is skipped, not
        trusted: the chain falls back a boundary and self-heals."""
        whole = run_segmented(*self.CELL, None)
        run_segmented(*self.CELL, 1000)
        cache = isolated_cache
        key = cache.key(
            "pipeline-segment", **segment_parts(*self.CELL, 1000, 3)
        )
        hit, snapshot = cache.load(key)
        assert hit
        cache.store(key, replace(snapshot, schema="pipeline-snapshot/0"))
        clear_memoised()
        again = run_segmented(*self.CELL, 1000)
        assert vars(whole.stats) == vars(again.stats)

    def test_warm_segment_reports_progress(self, isolated_cache):
        summary = warm_segment(*self.CELL, 1000, 0)
        assert summary["segment"] == 0
        assert summary["committed_instructions"] >= 1000
        # soft boundary: overshoot is bounded by the commit width
        assert summary["committed_instructions"] < 1000 + (
            PipelineConfig().commit_width
        )
        assert summary["done"] is False

    def test_build_cell_simulator_matches_direct_build(self):
        simulator = build_cell_simulator("compress", "gshare", ITERATIONS)
        result = simulator.run(max_instructions=TOTAL)
        assert digest(simulator, result) == run_whole()


class TestBatteryLevelResume:
    """Mid-cell resume through the full ``run_all`` stack: a journal
    that records nothing finished plus a partial segment chain must
    yield a byte-identical report to a clean unsegmented battery."""

    def test_resumed_segmented_battery_matches_whole(
        self, isolated_cache, tmp_path
    ):
        scale = replace(SMOKE, workloads=("compress",))
        segmented = replace(scale, segment_instructions=2000)
        clock = lambda: "(timestamp stripped)"  # noqa: E731

        clean = run_all(scale, only=["tab1"], jobs=1)
        reference = render_report(clean, scale, clock=clock, performance=False)

        # second cache: the "crashed" machine's disk
        artifact_cache.configure(root=tmp_path / "crashed", enabled=True)
        clear_memoised()
        clear_cache()
        journal_path = tmp_path / "killed.jsonl"
        with RunJournal(journal_path) as journal:
            journal.emit(
                "run_started",
                selection=["tab1"],
                jobs=1,
                mode="serial",
                scale={
                    "iterations": segmented.iterations,
                    "pipeline_instructions": segmented.pipeline_instructions,
                    "segment_instructions": segmented.segment_instructions,
                    "workloads": list(segmented.workloads),
                },
            )
        # the kill landed two segments into tab1's pipeline cell
        warm_segment(
            "compress",
            "gshare",
            segmented.iterations,
            segmented.pipeline_instructions,
            segmented.segment_instructions,
            1,
        )

        resumed = run_all(
            segmented, only=["tab1"], jobs=1, resume=journal_path
        )
        report = render_report(
            resumed, segmented, clock=clock, performance=False
        )
        assert report == reference


CHILD_TEMPLATE = """
import os, signal
from repro.engine import cache as artifact_cache

original_store = artifact_cache.ArtifactCache.store
state = {{"stores": 0}}

def killing_store(self, key, value):
    original_store(self, key, value)
    if key.startswith("pipeline-segment-"):
        state["stores"] += 1
        if state["stores"] == {kill_after}:
            os.kill(os.getpid(), signal.SIGKILL)

artifact_cache.ArtifactCache.store = killing_store
from repro.cli import main
raise SystemExit(main({argv!r}))
"""


class TestSigkillChaosLeg:
    """The chaos acceptance leg: a real ``repro run-all`` process is
    SIGKILLed mid-segment (immediately after its Nth segment snapshot
    lands on disk), then ``--resume`` reuses the chain and the report
    comes out byte-identical to an unkilled run."""

    ARGS = [
        "run-all",
        "--only",
        "tab1",
        "--scale",
        "smoke",
        "--workloads",
        "compress",
        "--segment-instructions",
        "2000",
        "--deterministic",
    ]

    def _run(self, tmp_path, name, argv, kill_after=None, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / f"{name}-cache")
        env.pop("REPRO_FAULTS", None)
        if env_extra:
            env.update(env_extra)
        if kill_after is None:
            code = (
                "from repro.cli import main\n"
                f"raise SystemExit(main({argv!r}))\n"
            )
        else:
            code = CHILD_TEMPLATE.format(kill_after=kill_after, argv=argv)
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        report_clean = tmp_path / "clean.txt"
        proc = self._run(
            tmp_path,
            "clean",
            self.ARGS + ["--out", str(report_clean)],
        )
        assert proc.returncode == 0, proc.stderr

        journal = tmp_path / "killed.jsonl"
        report_resumed = tmp_path / "resumed.txt"
        killed = self._run(
            tmp_path,
            "chaos",
            self.ARGS + ["--journal", str(journal), "--out", "unused.txt"],
            kill_after=2,
        )
        assert killed.returncode == -signal.SIGKILL
        chain = sorted(
            (tmp_path / "chaos-cache").glob("pipeline-segment-*.pkl")
        )
        assert len(chain) == 2  # died right after the second snapshot
        events = read_journal(journal)
        assert events[0]["event"] == "run_started"
        assert not [
            e for e in events if e["event"] == "experiment_finished"
        ]

        stamps = {path: path.stat().st_mtime_ns for path in chain}
        resumed = self._run(
            tmp_path,
            "chaos",  # same cache the killed run left behind
            self.ARGS
            + ["--resume", str(journal), "--out", str(report_resumed)],
        )
        assert resumed.returncode == 0, resumed.stderr
        # the killed run's segments were restored, not recomputed
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp
        assert report_resumed.read_bytes() == report_clean.read_bytes()
