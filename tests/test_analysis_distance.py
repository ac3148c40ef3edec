"""Tests for misprediction-distance curves.

The curves are cut from a run's :class:`DistanceCounts`, which the
simulator tallies as it runs and :meth:`DistanceCounts.from_store`
recounts from a :class:`BranchRecordStore`'s columns.  The per-branch
loops they replaced stay here as the oracle: :func:`_curve_from_pairs`
buckets ``(distance, flagged)`` pairs one at a time, and
:func:`precise_reference` / :func:`perceived_reference` walk
:meth:`BranchRecordStore.materialize` views of a reference-engine
log.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    geometric_reference_pdf,
    perceived_distance_curve,
    precise_distance_curve,
    render_curves,
)
from repro.analysis.distance import DistanceBucket, DistanceCurve, _curve_from_columns
from repro.engine import branches_since_flagged, workload_program
from repro.harness import SPECS, run_experiment
from repro.harness.experiments import SMOKE
from repro.harness.parallel import plan_warm_levels
from repro.pipeline import (
    BranchRecordStore,
    DistanceCounts,
    PipelineConfig,
    create_simulator,
)
from repro.pipeline.records import DistanceTally
from repro.predictors import make_predictor
from repro.workloads import SUITE

# ----------------------------------------------------------------------
# the per-branch oracle
# ----------------------------------------------------------------------


def _curve_from_pairs(pairs, label, max_distance):
    branches = [0] * (max_distance + 1)
    misses = [0] * (max_distance + 1)
    total = 0
    total_misses = 0
    for distance, mispredicted in pairs:
        bucket = min(distance, max_distance)
        branches[bucket] += 1
        total += 1
        if mispredicted:
            misses[bucket] += 1
            total_misses += 1
    buckets = tuple(
        DistanceBucket(distance=d, branches=branches[d], mispredictions=misses[d])
        for d in range(max_distance + 1)
    )
    return DistanceCurve(
        label=label,
        buckets=buckets,
        total_branches=total,
        total_mispredictions=total_misses,
    )


def precise_reference(store, population, max_distance=15):
    records = store.materialize()
    if population == "all":
        pairs = ((record.precise_distance, record.mispredicted) for record in records)
        return _curve_from_pairs(pairs, "precise/all", max_distance)

    def committed_pairs():
        distance = 0
        for record in records:
            if not record.committed:
                continue
            yield distance, record.mispredicted
            distance = 0 if record.mispredicted else distance + 1

    return _curve_from_pairs(committed_pairs(), "precise/committed", max_distance)


def perceived_reference(store, population, max_distance=15):
    records = store.materialize()
    if population == "committed":
        records = [record for record in records if record.committed]
    pairs = ((record.perceived_distance, record.mispredicted) for record in records)
    return _curve_from_pairs(pairs, f"perceived/{population}", max_distance)


CURVES = (
    (precise_distance_curve, precise_reference),
    (perceived_distance_curve, perceived_reference),
)


#: Tail cuts every oracle comparison checks (the battery uses 15).
MAX_DISTANCES = (0, 1, 4, 15)


def assert_matches_reference(store, counts=None):
    """All four (kind, population) curves cut from ``counts`` (by
    default counted from ``store``) equal the loop oracle's over
    ``store``, at every tail cut of :data:`MAX_DISTANCES`."""
    if counts is None:
        counts = DistanceCounts.from_store(store)
    for max_distance in MAX_DISTANCES:
        for curve_fn, reference in CURVES:
            for population in ("all", "committed"):
                expected = reference(store, population, max_distance)
                assert curve_fn(counts, population, max_distance) == expected


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def columns_curve(pairs, label, max_distance):
    """The column kernel over a list of ``(distance, flagged)`` pairs."""
    distance = np.array([d for d, __ in pairs], dtype=np.int64)
    flags = np.array([flag for __, flag in pairs], dtype=bool)
    return _curve_from_columns(distance, flags, label, max_distance)


def record(sequence, mispredicted=False, committed=True, precise=0, perceived=0):
    return sequence, mispredicted, committed, precise, perceived


def build_store(records):
    """A store holding ``records``, each resolved or squashed (an
    appended record stays uncommitted until it resolves)."""
    store = BranchRecordStore()
    for sequence, mispredicted, committed, precise, perceived in records:
        index = store.append(
            sequence=sequence,
            pc=sequence,
            predicted_taken=True,
            actual_taken=not mispredicted,
            fetch_cycle=sequence,
            precise_distance=precise,
            perceived_distance=perceived,
            wrong_path=not committed,
            assessments=None,
        )
        if committed:
            store.resolve(index, sequence + 3)
    return store


class TestCurveFromPairs:
    def test_bucketing_and_rates(self):
        pairs = [(0, True), (0, False), (1, False), (5, True)]
        curve = columns_curve(pairs, "t", max_distance=3)
        assert curve.buckets[0].branches == 2
        assert curve.buckets[0].misprediction_rate == pytest.approx(0.5)
        assert curve.buckets[3].branches == 1  # tail bucket absorbs d=5
        assert curve.total_branches == 4
        assert curve.average_rate == pytest.approx(0.5)

    def test_clustering_ratio(self):
        pairs = [(0, True)] * 6 + [(5, False)] * 54 + [(5, True)] * 6
        curve = columns_curve(pairs, "t", max_distance=8)
        assert curve.clustering_ratio > 1.0

    def test_rate_at_clamps_to_tail(self):
        curve = columns_curve([(9, True)], "t", max_distance=3)
        assert curve.rate_at(99) == pytest.approx(1.0)


EMPTY_COUNTS = DistanceCounts.from_store(BranchRecordStore())


class TestDistanceCounts:
    def test_counts_are_exact_and_unclamped(self):
        store = build_store(
            [
                record(0, mispredicted=True, precise=40, perceived=2),
                record(1, committed=False, precise=0, perceived=3),
                record(2, precise=1, perceived=4),
            ]
        )
        counts = DistanceCounts.from_store(store)
        branches, misses = counts.precise_all
        assert len(branches) == len(misses) == 41
        assert (branches[40], misses[40]) == (1, 1)
        assert (branches[0], branches[1], sum(misses)) == (1, 1, 1)
        # committed stream M . -> recounted distances 0 and 0
        assert counts.precise_committed == ((2,), (1,))
        assert counts.perceived_all == ((0, 0, 1, 1, 1), (0, 0, 1, 0, 0))
        assert counts.perceived_committed == ((0, 0, 1, 0, 1), (0, 0, 1, 0, 0))

    def test_empty_store(self):
        assert EMPTY_COUNTS == DistanceCounts(*[((), ())] * 4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.booleans(),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=80,
        ),
    )
    def test_tally_equals_the_store_recount(self, rows):
        """A tally fed every branch at fetch, and the committed ones at
        commit in fetch order (as in-order commit does), counts what
        ``from_store`` recounts from the same branches' log."""
        tally = DistanceTally()
        assert tally.counts() == EMPTY_COUNTS
        for mispredicted, __, precise, perceived in rows:
            tally.fetch(precise, perceived, mispredicted)
        for mispredicted, committed, __, perceived in rows:
            if committed:
                tally.commit(perceived, mispredicted)
        store = build_store([record(i, *row) for i, row in enumerate(rows)])
        assert tally.counts() == DistanceCounts.from_store(store)


class TestPreciseCurve:
    def test_all_population_uses_recorded_distances(self):
        store = build_store(
            [
                record(0, mispredicted=True, precise=4),
                record(1, precise=0),
                record(2, precise=1, committed=False),
            ]
        )
        curve = precise_distance_curve(
            DistanceCounts.from_store(store), population="all", max_distance=5
        )
        assert curve.total_branches == 3
        assert curve.buckets[4].mispredictions == 1

    def test_committed_population_recounts(self):
        # committed stream: M . . M  -> distances 0(any), 0, 1, 2
        store = build_store(
            [
                record(0, mispredicted=True, precise=7),
                record(1, committed=False, precise=0),  # wrong path, skipped
                record(2, precise=0),
                record(3, precise=1),
                record(4, mispredicted=True, precise=2),
            ]
        )
        curve = precise_distance_curve(
            DistanceCounts.from_store(store), population="committed", max_distance=5
        )
        assert curve.total_branches == 4
        # the second misprediction happened at recounted distance 2
        assert curve.buckets[2].mispredictions == 1

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            precise_distance_curve(EMPTY_COUNTS, population="bogus")


class TestPerceivedCurve:
    def test_filters_committed(self):
        store = build_store(
            [
                record(0, perceived=3),
                record(1, committed=False, perceived=4),
            ]
        )
        counts = DistanceCounts.from_store(store)
        all_curve = perceived_distance_curve(counts, population="all")
        committed_curve = perceived_distance_curve(counts, population="committed")
        assert all_curve.total_branches == 2
        assert committed_curve.total_branches == 1

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            perceived_distance_curve(EMPTY_COUNTS, population="bogus")


class TestColumnsMatchLoopReference:
    """The column curves equal the per-branch loops they replaced."""

    @pytest.mark.parametrize(
        "records",
        [
            [],
            [record(i, committed=False, precise=i, perceived=i) for i in range(6)],
            [record(i, mispredicted=True) for i in range(6)],
            [record(i, mispredicted=i % 3 == 0, precise=40 + i, perceived=99) for i in range(9)],
        ],
        ids=["empty", "all-squashed", "all-mispredicted", "beyond-max-distance"],
    )
    def test_edge_stores(self, records):
        assert_matches_reference(build_store(records))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.booleans(),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=80,
        ),
    )
    def test_random_stores(self, rows):
        records = [record(i, *row) for i, row in enumerate(rows)]
        assert_matches_reference(build_store(records))

    @pytest.mark.parametrize("fast", [True, False], ids=["fused", "reference"])
    @pytest.mark.parametrize("backend", ["inorder", "ooo"])
    def test_smoke_battery_pipeline_results(self, backend, fast):
        cells = [
            args[:4]
            for wave in plan_warm_levels(list(SPECS), SMOKE)
            for kind, args in wave
            if kind == "pipeline"
        ]
        assert cells
        for workload, predictor, iterations, max_instructions in cells:

            def simulate(fast):
                simulator = create_simulator(
                    workload_program(workload, iterations),
                    make_predictor(predictor),
                    backend=backend,
                    config=PipelineConfig(),
                    fast=fast,
                )
                return simulator, simulator.run(max_instructions=max_instructions)

            simulator, result = simulate(fast)
            # only the reference engine logs branches: a fused run's
            # counts are checked against the reference engine's log
            reference = simulate(False)[0] if fast else simulator
            if fast:
                assert len(simulator.records) == 0
            assert len(reference.records) > 0
            assert_matches_reference(reference.records, result.distances)


class TestCommittedPerceivedDistance:
    """On both backends, every committed branch's perceived distance is
    the number of committed branches since the previous committed
    misprediction: the committed perceived curve (Figures 8/9) is the
    committed precise one (Figures 6/7), branch for branch."""

    @pytest.mark.parametrize("backend", ["inorder", "ooo"])
    @settings(max_examples=12, deadline=None)
    @given(
        workload=st.sampled_from(SUITE),
        predictor=st.sampled_from(["gshare", "mcfarling"]),
        iterations=st.integers(min_value=10, max_value=60),
        max_instructions=st.integers(min_value=500, max_value=4000),
    )
    def test_perceived_counts_committed_branches(
        self, backend, workload, predictor, iterations, max_instructions
    ):
        simulator = create_simulator(
            workload_program(workload, iterations),
            make_predictor(predictor),
            backend=backend,
            config=PipelineConfig(),
            fast=False,  # the reference engine logs every fetched branch
        )
        simulator.run(max_instructions=max_instructions)
        __, perceived, mispredicted, committed = simulator.records.distance_columns()
        recount = branches_since_flagged(mispredicted[committed])
        assert perceived[committed].tolist() == recount.tolist()


class TestEmptyBuckets:
    """A distance no branch fell at has no rate: ``None``, rendered
    ``n/a``, never a made-up 0.0%."""

    def test_empty_bucket_and_curve_rates_are_none(self):
        curve = columns_curve([(0, True), (2, False)], "t", max_distance=3)
        assert curve.buckets[1].misprediction_rate is None
        assert curve.rate_at(3) is None
        # one correct branch is a real 0.0%
        assert curve.buckets[2].misprediction_rate == 0.0
        empty = columns_curve([], "t", max_distance=3)
        assert empty.average_rate is None
        assert geometric_reference_pdf(empty) == [0.0] * 4
        assert "n/a" in render_curves([curve, empty])

    def test_figure_prints_na_where_no_branch_falls(self):
        # 300 instructions of vortex leave the tail buckets empty
        scale = replace(SMOKE, workloads=("vortex",), pipeline_instructions=300)
        (table,) = run_experiment("fig6", scale).tables
        rows = {row[0]: row[1:] for row in table.rows}
        for tag in [str(d) for d in range(8, 15)] + [">=15"]:
            assert rows[tag] == ["n/a", "n/a"], tag
        assert rows["7"][1] == "n/a"
        # distance 4 holds one correct branch in each population
        assert rows["4"] == ["0.0%", "0.0%"]


class TestRendering:
    def test_render_curves_output(self):
        curve = columns_curve([(0, True), (1, False)], "demo", max_distance=2)
        text = render_curves([curve])
        assert "demo" in text
        assert "avg" in text

    def test_render_empty(self):
        assert render_curves([]) == ""


class TestDistancePdf:
    def test_pdf_sums_to_one(self):
        from repro.analysis import distance_pdf

        curve = columns_curve(
            [(0, True), (1, True), (5, True), (2, False)], "t", max_distance=6
        )
        pdf = distance_pdf(curve)
        assert sum(pdf) == pytest.approx(1.0)
        assert pdf[0] == pytest.approx(1 / 3)

    def test_pdf_empty(self):
        from repro.analysis import distance_pdf

        curve = columns_curve([(0, False)], "t", max_distance=3)
        assert distance_pdf(curve) == [0.0, 0.0, 0.0, 0.0]

    def test_geometric_reference_sums_to_one(self):
        from repro.analysis import geometric_reference_pdf

        curve = columns_curve(
            [(d % 7, d % 5 == 0) for d in range(200)], "t", max_distance=10
        )
        reference = geometric_reference_pdf(curve)
        assert sum(reference) == pytest.approx(1.0)
        # geometric: strictly decreasing over the non-tail buckets
        body = reference[:-1]
        assert all(b < a for a, b in zip(body, body[1:]))

    def test_divergence_zero_for_geometric_stream(self):
        """An independent Bernoulli stream shows ~no clustering."""
        import random

        from repro.analysis import clustering_divergence

        rng = random.Random(5)
        pairs = []
        distance = 0
        for __ in range(50_000):
            mispredicted = rng.random() < 0.2
            pairs.append((distance, mispredicted))
            distance = 0 if mispredicted else distance + 1
        curve = columns_curve(pairs, "iid", max_distance=15)
        assert clustering_divergence(curve) < 0.03

    def test_divergence_positive_for_clustered_stream(self):
        """Back-to-back misprediction bursts diverge from geometric."""
        import random

        from repro.analysis import clustering_divergence

        rng = random.Random(6)
        pairs = []
        distance = 0
        bursting = False
        for __ in range(50_000):
            if bursting:
                mispredicted = rng.random() < 0.6
                bursting = mispredicted
            else:
                mispredicted = rng.random() < 0.05
                bursting = mispredicted
            pairs.append((distance, mispredicted))
            distance = 0 if mispredicted else distance + 1
        curve = columns_curve(pairs, "bursty", max_distance=15)
        assert clustering_divergence(curve) > 0.15
