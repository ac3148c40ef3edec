"""The pre-decoded pipeline fast path and its accounting contracts.

Three groups of guarantees:

* **byte identity** -- the fused engine (pre-decoded programs, fused
  cycle loop, inlined gshare, McFarling and estimator, inlined distance
  tally) must leave *exactly* the state the reference per-instruction
  engine leaves: stats, distance counts, architectural machine state,
  cache hit/miss counters, estimator quadrants and state -- for every
  simulator class and estimator, and for fused runs broken by soft
  stops and snapshot round trips.  The reference engine's per-branch
  :class:`~repro.pipeline.records.BranchRecordStore` is the tally's
  oracle, and the fused engine logs no branch.  A simulator runs one
  engine for its whole life: only a reference one steps;
* **accounting fixes** -- ``max_instructions`` commits exactly N, and a
  congestion window delays exactly one branch (no double charge across
  a fetch group);
* **supporting structures** -- the columnar
  :class:`~repro.pipeline.records.BranchRecordStore`, the
  ``*_or_none`` stats accessors and the pre-decoded program artifact.
"""

import dataclasses
import pickle

import pytest

from repro import settings
from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
    SaturatingCountersEstimator,
)
from repro.engine import workload_program
from repro.harness.shard import build_cell_simulator
from repro.harness.speculation import SPECULATION_ESTIMATORS, SPECULATION_PREDICTOR
from repro.pipeline import (
    BranchRecordStore,
    DecodedProgram,
    DistanceCounts,
    OutOfOrderSimulator,
    PipelineConfig,
    PipelineSimulator,
    PipelineStats,
    capture_snapshot,
    decode_program,
    restore_snapshot,
)
from repro.isa import assemble
from repro.predictors import GsharePredictor, McFarlingPredictor, make_predictor
from repro.speculation import (
    EagerOutOfOrderSimulator,
    EagerPipelineSimulator,
    GatedOutOfOrderSimulator,
    GatedPipelineSimulator,
)
from repro.workloads import generate_program, get_profile

from test_speculation_inversion import estimator_state

RECORD_FIELDS = (
    "sequence",
    "pc",
    "predicted_taken",
    "actual_taken",
    "fetch_cycle",
    "resolve_cycle",
    "committed",
    "precise_distance",
    "perceived_distance",
    "wrong_path",
    "assessments",
)


def small_program(name="compress", iterations=40):
    return generate_program(get_profile(name), iterations=iterations)


#: Estimator factories: the five the fused loop inlines with gshare
#: (JRS enhanced and plain, distance, and a boost over each family) and
#: saturating counters, which stays on the protocol path.
ESTIMATORS = {
    "jrs": lambda: JRSEstimator(threshold=15),
    "jrs-plain": lambda: JRSEstimator(threshold=15, enhanced=False),
    "distance": lambda: MispredictionDistanceEstimator(4),
    "boost2-distance": lambda: BoostedEstimator(
        MispredictionDistanceEstimator(4), k=2
    ),
    "boost2-jrs": lambda: BoostedEstimator(JRSEstimator(threshold=15), k=2),
    "satcnt": lambda: SaturatingCountersEstimator(counter_bits=2),
}

#: Predictor factories: the two the fused loop inlines, and three it
#: drives through ``predict``/``resolve``.
PREDICTORS = {
    "gshare": GsharePredictor,
    "mcfarling": McFarlingPredictor,
    "sag": lambda: make_predictor("sag"),
    "gshare-nonspec": lambda: GsharePredictor(speculative_history=False),
    "mcfarling-nonspec": lambda: McFarlingPredictor(speculative_history=False),
}

#: Every simulator class, with the keywords that switch its gate or fork
#: on; those two need the estimator they name.
SIMULATORS = {
    "inorder": (PipelineSimulator, {}),
    "ooo": (OutOfOrderSimulator, {}),
    "gated": (GatedPipelineSimulator, {"gate_on": "est"}),
    "gated2": (GatedPipelineSimulator, {"gate_on": "est", "gate_threshold": 2}),
    "gated-ooo": (GatedOutOfOrderSimulator, {"gate_on": "est"}),
    "gated2-ooo": (
        GatedOutOfOrderSimulator,
        {"gate_on": "est", "gate_threshold": 2},
    ),
    "eager": (EagerPipelineSimulator, {"fork_on": "est"}),
    "eager-ooo": (EagerOutOfOrderSimulator, {"fork_on": "est"}),
}

#: ``"simulator/estimator"`` for every pair, plus the two plain
#: backends bare: (simulator, estimator or None).
SIMULATOR_KINDS = {
    "inorder": ("inorder", None),
    "ooo": ("ooo", None),
    **{
        f"{simulator}/{estimator}": (simulator, estimator)
        for simulator in SIMULATORS
        for estimator in ESTIMATORS
    },
}


def build_simulator(kind, program, config, fast, predictor="gshare"):
    simulator, estimator = SIMULATOR_KINDS[kind]
    simulator_class, kwargs = SIMULATORS[simulator]
    estimators = {"est": ESTIMATORS[estimator]()} if estimator else {}
    return simulator_class(
        program,
        PREDICTORS[predictor](),
        config=config,
        estimators=estimators,
        fast=fast,
        **kwargs,
    )


def full_digest(simulator, result):
    """Everything a run leaves behind but the reference engine's log:
    stats, distance counts, machine and cache state, quadrants,
    estimator state, gating/fork counters, rename state."""
    machine = simulator.machine
    digest = {
        "stats": dataclasses.asdict(result.stats),
        "distances": result.distances,
        "machine": (
            list(machine.regs),
            dict(machine.memory),
            machine.pc,
            machine.instructions_retired,
        ),
        "caches": [
            (cache.hits, cache.misses)
            for cache in (simulator.icache, simulator.dcache)
        ],
        "quadrants": [
            {name: vars(counts).copy() for name, counts in table.items()}
            for table in (result.quadrants_committed, result.quadrants_all)
        ],
        "estimators": {
            name: estimator_state(estimator)
            for name, estimator in simulator.estimators.items()
        },
        "speculation": (
            simulator.gated_cycles,
            simulator.eager_forks,
            simulator.eager_covered,
            simulator.eager_wasted_slots,
        ),
    }
    if isinstance(simulator, OutOfOrderSimulator):
        digest["rename"] = (
            list(simulator._rename_map),
            list(simulator._free_regs),
            dict(simulator._rename_of),
        )
    return digest


def assert_equivalent(slow_sim, slow_result, fast_sim, fast_result):
    assert dataclasses.asdict(slow_result.stats) == dataclasses.asdict(
        fast_result.stats
    )
    assert slow_result.distances == fast_result.distances
    # the reference engine's log recounts to the tally both engines kept
    assert len(slow_sim.records) == slow_result.stats.fetched_branches
    assert DistanceCounts.from_store(slow_sim.records) == slow_result.distances
    assert len(fast_sim.records) == 0
    assert slow_sim.machine.regs == fast_sim.machine.regs
    assert slow_sim.machine.memory == fast_sim.machine.memory
    assert slow_sim.machine.pc == fast_sim.machine.pc
    for side in ("icache", "dcache"):
        slow_cache = getattr(slow_sim, side)
        fast_cache = getattr(fast_sim, side)
        assert (slow_cache.hits, slow_cache.misses) == (
            fast_cache.hits,
            fast_cache.misses,
        ), side
    for table in ("quadrants_committed", "quadrants_all"):
        slow_quadrants = getattr(slow_result, table)
        fast_quadrants = getattr(fast_result, table)
        assert slow_quadrants.keys() == fast_quadrants.keys()
        for name in slow_quadrants:
            assert vars(slow_quadrants[name]) == vars(fast_quadrants[name])


class TestFastSlowIdentity:
    @pytest.mark.parametrize("predictor_name", ("gshare", "mcfarling", "sag"))
    def test_base_simulator_identical(self, predictor_name):
        program = small_program()
        runs = []
        for fast in (False, True):
            simulator = PipelineSimulator(
                program, make_predictor(predictor_name), fast=fast
            )
            runs.append((simulator, simulator.run()))
        assert_equivalent(*runs[0], *runs[1])

    @pytest.mark.parametrize("predictor_name", ("gshare", "mcfarling"))
    def test_with_estimators_identical(self, predictor_name):
        program = small_program()
        runs = []
        for fast in (False, True):
            simulator = PipelineSimulator(
                program,
                make_predictor(predictor_name),
                estimators={"jrs": JRSEstimator(threshold=15, enhanced=True)},
                fast=fast,
            )
            runs.append((simulator, simulator.run(max_instructions=6_000)))
        assert_equivalent(*runs[0], *runs[1])

    def test_gated_simulator_identical(self):
        program = small_program()
        runs = []
        for fast in (False, True):
            predictor = GsharePredictor()
            simulator = GatedPipelineSimulator(
                program,
                predictor,
                estimators={"gate": JRSEstimator(threshold=15)},
                gate_on="gate",
                gate_threshold=1,
                fast=fast,
            )
            runs.append((simulator, simulator.run(max_instructions=6_000)))
        assert_equivalent(*runs[0], *runs[1])

    def test_eager_simulator_identical(self):
        program = small_program()
        runs = []
        for fast in (False, True):
            predictor = GsharePredictor()
            simulator = EagerPipelineSimulator(
                program,
                predictor,
                estimators={"fork": JRSEstimator(threshold=15)},
                fork_on="fork",
                fast=fast,
            )
            runs.append((simulator, simulator.run(max_instructions=6_000)))
        assert_equivalent(*runs[0], *runs[1])
        # the fork counters live on the simulator, not the result; the
        # wasted-slot count in particular depends on the fetch dilution
        # being charged on exactly the same cycles in both engines
        slow_sim, fast_sim = runs[0][0], runs[1][0]
        assert slow_sim.eager_forks == fast_sim.eager_forks
        assert slow_sim.eager_covered == fast_sim.eager_covered
        assert slow_sim.eager_wasted_slots == fast_sim.eager_wasted_slots

    def test_shared_decoded_instance_identical(self):
        program = small_program()
        decoded = decode_program(program)
        reference = PipelineSimulator(program, GsharePredictor(), fast=False)
        shared = PipelineSimulator(
            program, GsharePredictor(), decoded=decoded, fast=True
        )
        assert_equivalent(reference, reference.run(), shared, shared.run())


class TestOneEnginePerSimulator:
    @pytest.mark.parametrize("kind", ["inorder", "ooo", "gated/jrs", "eager/jrs"])
    def test_only_a_reference_simulator_steps(self, kind):
        # a fused simulator refuses step_cycle() before touching any
        # state, also mid-run; a fast=False one steps one cycle
        program = small_program()
        fused = build_simulator(kind, program, None, fast=True)
        fused.run(max_instructions=2_000, stop_instructions=500)

        def state(simulator):
            machine = simulator.machine
            return (
                dataclasses.asdict(simulator.stats),
                simulator.cycle,
                list(machine.regs),
                dict(machine.memory),
                machine.pc,
                machine.instructions_retired,
            )

        before = state(fused)
        with pytest.raises(RuntimeError, match="fast=False"):
            fused.step_cycle()
        assert state(fused) == before
        reference = build_simulator(kind, program, None, fast=False)
        for cycle in range(1, 50):
            reference.step_cycle()
            assert reference.cycle == cycle
        assert reference.stats.fetched_instructions


#: The tally matrix's front ends: (simulator prefix, estimator name ->
#: :data:`ESTIMATORS` key).  ``gated`` gates on a JRS and ``eager``
#: forks on a distance estimator, both inlined with gshare; the bank of
#: three estimators always takes the protocol calls.
TALLY_SETUPS = {
    "no-estimator": ("", {}),
    "gated-jrs": ("gated", {"est": "jrs"}),
    "eager-distance": ("eager", {"est": "distance"}),
    "protocol-bank": (
        "",
        {"jrs": "jrs", "dist": "distance", "satcnt": "satcnt"},
    ),
}


class TestDistanceTally:
    """Both engines count Figures 6-9's histograms as they run.  The
    reference engine also logs every fetched branch, and that log
    recounts to its tally; the fused engine logs nothing."""

    BUDGET = 2_000

    @staticmethod
    def build(predictor, backend, setup, fast):
        prefix, estimators = TALLY_SETUPS[setup]
        if not prefix:
            name = backend
        else:
            name = f"{prefix}-ooo" if backend == "ooo" else prefix
        simulator_class, kwargs = SIMULATORS[name]
        return simulator_class(
            workload_program("compress", 15),
            PREDICTORS[predictor](),
            estimators={
                name: ESTIMATORS[factory]() for name, factory in estimators.items()
            },
            fast=fast,
            **kwargs,
        )

    def run(self, simulator, mode):
        """``(simulator, result)`` of a ``mode`` run; a stop/resume run
        ends in an unpickled copy."""
        budget = self.BUDGET
        if mode == "stop-resume":
            for stop in (300, 900):
                simulator.run(max_instructions=budget, stop_instructions=stop)
            simulator = restore_snapshot(capture_snapshot(simulator))
        return simulator, simulator.run(max_instructions=budget)

    @pytest.mark.parametrize("mode", ["whole", "stop-resume"])
    @pytest.mark.parametrize("setup", list(TALLY_SETUPS))
    @pytest.mark.parametrize("backend", ["inorder", "ooo"])
    @pytest.mark.parametrize(
        "predictor", ["gshare", "mcfarling", "sag", "gshare-nonspec"]
    )
    def test_fused_tally_matches_the_reference_log(
        self, predictor, backend, setup, mode
    ):
        reference, expected = self.run(
            self.build(predictor, backend, setup, False), mode
        )
        assert expected.stats.committed_mispredictions
        assert len(reference.records) == expected.stats.fetched_branches
        assert DistanceCounts.from_store(reference.records) == expected.distances
        fused, result = self.run(
            self.build(predictor, backend, setup, True), mode
        )
        assert result.distances == expected.distances
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(
            expected.stats
        )
        # only the reference engine logs branches
        assert len(fused.records) == 0
        # a machine checkpoint is a plain tuple that restores exactly
        machine = fused.machine
        snapshot = machine.snapshot()
        assert type(snapshot) is tuple
        state = (
            list(machine.regs),
            dict(machine.memory),
            machine.pc,
            machine.halted,
            machine.instructions_retired,
        )
        machine.store_word(4, 99)
        machine.regs[1] ^= 1
        machine.pc += 1
        machine.halted = not machine.halted
        machine.instructions_retired += 5
        machine.restore(snapshot)
        assert (
            list(machine.regs),
            dict(machine.memory),
            machine.pc,
            machine.halted,
            machine.instructions_retired,
        ) == state
        assert machine.snapshot() == snapshot


class TestInlinedEstimator:
    """A speculative-history gshare with one JRS, distance or boosted
    estimator runs both inlined in the fused loop; the reference
    engine is the oracle, and satcnt stays on the protocol path."""

    @pytest.mark.parametrize("kind", list(SIMULATOR_KINDS))
    def test_run_identical(self, kind):
        program = small_program()
        digests = []
        for fast in (False, True):
            simulator = build_simulator(kind, program, None, fast)
            result = simulator.run(max_instructions=6_000)
            digests.append(full_digest(simulator, result))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "case",
        [
            *ESTIMATORS,
            *(
                f"{backend}/{predictor}"
                for backend in ("inorder", "ooo")
                for predictor in PREDICTORS
            ),
        ],
    )
    def test_stops_and_snapshot_resume_identically(self, case):
        # a fused run that soft-stops every 4 instructions, and goes
        # through a snapshot round trip at one stop with a branch in
        # flight (a live fork on the eager simulators), ends where the
        # reference engine's whole run ends: its in-flight entries keep
        # the fused layout, tokens and fork alias across runs and
        # pickles.  A case is an estimator on the gated and eager
        # simulators over gshare, or a bare backend/predictor.
        program = small_program()
        budget = 2_000
        if case in ESTIMATORS:
            runs = [(f"{simulator}/{case}", "gshare") for simulator in ("gated", "eager")]
        else:
            runs = [tuple(case.split("/"))]
        for kind, predictor in runs:
            reference = build_simulator(kind, program, None, False, predictor)
            expected = full_digest(reference, reference.run(max_instructions=budget))
            fused = build_simulator(kind, program, None, True, predictor)
            eager = kind.startswith("eager")
            branch_stops = fork_stops = 0
            restored = False
            for stop in range(4, budget, 4):
                fused.run(max_instructions=budget, stop_instructions=stop)
                branches = sum(1 for entry in fused._inflight if entry[3])
                branch_stops += branches > 0
                fork_stops += fused._active_fork is not None
                if not restored and branches and (
                    fused._active_fork is not None or not eager
                ):
                    fused = restore_snapshot(capture_snapshot(fused))
                    restored = True
            result = fused.run(max_instructions=budget)
            assert full_digest(fused, result) == expected, kind
            assert restored and branch_stops, kind
            if eager:
                assert fork_stops, kind

    @pytest.mark.parametrize("estimator", list(ESTIMATORS))
    def test_snapshot_round_trip_with_low_confidence_in_flight(self, estimator):
        program = small_program()
        kind = f"gated/{estimator}"
        reference = build_simulator(kind, program, None, fast=False)
        expected = full_digest(reference, reference.run(max_instructions=6_000))
        paused = build_simulator(kind, program, None, fast=True)
        for stop in range(50, 6_000, 50):
            paused.run(max_instructions=6_000, stop_instructions=stop)
            if paused._low_confidence_inflight:
                break
        else:
            pytest.fail("no stop had a low-confidence branch in flight")
        restored = restore_snapshot(capture_snapshot(paused))
        result = restored.run(max_instructions=6_000)
        assert full_digest(restored, result) == expected

    def test_battery_runs_make_no_protocol_calls(self, monkeypatch):
        # the identity tests pass on the protocol path too: only with
        # the protocol calls raising does a silent fallback show.  The
        # runs: every gated and eager cell's gshare and estimator, and
        # the estimator-free McFarling runs of figures 7 and 9
        program = small_program()

        def runs():
            digests = []
            for backend in ("inorder", "ooo"):
                simulator = build_cell_simulator("compress", "mcfarling", 40, backend)
                result = simulator.run(max_instructions=6_000)
                digests.append(full_digest(simulator, result))
            for name, factory in SPECULATION_ESTIMATORS.items():
                for simulator_class, kwargs in (
                    (GatedPipelineSimulator, {"gate_on": name}),
                    (EagerPipelineSimulator, {"fork_on": name}),
                ):
                    predictor = make_predictor(SPECULATION_PREDICTOR)
                    simulator = simulator_class(
                        program,
                        predictor,
                        estimators={name: factory(predictor)},
                        fast=True,
                        **kwargs,
                    )
                    result = simulator.run(max_instructions=6_000)
                    digests.append(full_digest(simulator, result))
            return digests

        expected = runs()

        def refuse(*args, **kwargs):
            raise AssertionError("protocol call in the inlined path")

        for cls in (JRSEstimator, MispredictionDistanceEstimator, BoostedEstimator):
            monkeypatch.setattr(cls, "estimate", refuse)
            monkeypatch.setattr(cls, "resolve", refuse)
        for cls in (GsharePredictor, McFarlingPredictor):
            monkeypatch.setattr(cls, "predict", refuse)
            monkeypatch.setattr(cls, "resolve", refuse)
        assert runs() == expected


CONGESTION_PROGRAM = """
        lw   r1, 0(r0)
        bne  r1, r0, target
        bne  r1, r0, target
        halt
target: halt
"""


class TestCongestionSingleCharge:
    def test_one_miss_window_delays_exactly_one_branch(self):
        # fetch_width=2 puts the load + first branch in one fetch
        # group and the second branch in the next cycle's group: the
        # cold-miss congestion window must charge the first branch
        # (and be consumed), leaving the second branch unpenalized
        program = assemble(CONGESTION_PROGRAM)
        config = PipelineConfig(fetch_width=2, commit_width=4, window=16)
        simulator = PipelineSimulator(
            program, GsharePredictor(), config=config, fast=False
        )
        for __ in range(40):
            simulator.step_cycle()
            branches = [
                entry for entry in simulator._inflight if entry.is_branch
            ]
            if len(branches) == 2:
                break
        else:
            pytest.fail("both branches never in flight together")
        first, second = branches
        store = simulator.records
        assert first.ready_cycle == (
            store.fetch_cycle[0]
            + config.resolve_stage
            + config.dcache.miss_penalty
        )
        assert second.ready_cycle == (
            store.fetch_cycle[1] + config.resolve_stage
        )
        # the charge consumed the window outright
        assert simulator._congestion == 0


class TestBranchRecordStore:
    def build(self):
        store = BranchRecordStore()
        first = store.append(
            sequence=0,
            pc=4,
            predicted_taken=True,
            actual_taken=True,
            fetch_cycle=2,
            precise_distance=0,
            perceived_distance=0,
            wrong_path=False,
            assessments={"jrs": True},
        )
        second = store.append(
            sequence=1,
            pc=9,
            predicted_taken=False,
            actual_taken=True,
            fetch_cycle=3,
            precise_distance=1,
            perceived_distance=1,
            wrong_path=True,
            assessments=None,
        )
        return store, first, second

    def test_append_resolve_squash_materialize(self):
        store, first, second = self.build()
        store.resolve(first, 9)
        # a squashed branch is one that never resolves
        records = store.materialize()
        assert len(store) == len(records) == 2
        assert records[0].committed and records[0].resolve_cycle == 9
        assert not records[0].mispredicted
        assert not records[1].committed and records[1].resolve_cycle is None
        assert records[1].mispredicted  # predicted != actual
        assert records[1].assessments == {}

    def test_materialize_is_memoised_until_mutation(self):
        store, first, __ = self.build()
        views = store.materialize()
        assert store.materialize() is views
        store.resolve(first, 5)
        fresh = store.materialize()
        assert fresh is not views
        assert fresh[0].resolve_cycle == 5

    def test_distance_columns_are_memoised_until_mutation(self):
        store, first, second = self.build()
        columns = store.distance_columns()
        assert store.distance_columns() is columns
        precise, perceived, mispredicted, committed = columns
        assert precise.dtype == perceived.dtype == "int64"
        assert mispredicted.tolist() == [False, True]
        assert committed.tolist() == [False, False]
        assert not any(column.flags.writeable for column in columns)
        store.resolve(first, 5)
        fresh = store.distance_columns()
        assert fresh is not columns
        assert fresh[3].tolist() == [True, False]
        clone = pickle.loads(pickle.dumps(store))
        for left, right in zip(fresh, clone.distance_columns()):
            assert left.tolist() == right.tolist()

    def test_pickle_round_trip(self):
        store, first, __ = self.build()
        store.resolve(first, 7)
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store)
        for left, right in zip(store.materialize(), clone.materialize()):
            for name in RECORD_FIELDS:
                assert getattr(left, name) == getattr(right, name), name


class TestStatsOrNone:
    def test_empty_run_reports_none_not_zero(self):
        stats = PipelineStats()
        assert stats.fetch_to_commit_ratio_or_none() is None
        assert stats.committed_accuracy_or_none() is None
        assert stats.all_accuracy_or_none() is None
        assert stats.ipc_or_none() is None

    def test_populated_run_agrees_with_properties(self):
        result = PipelineSimulator(small_program(), GsharePredictor()).run()
        stats = result.stats
        assert stats.cycles and stats.committed_branches and stats.fetched_branches
        assert stats.fetch_to_commit_ratio_or_none() == pytest.approx(
            stats.fetched_instructions / stats.committed_instructions
        )
        assert stats.committed_accuracy_or_none() == pytest.approx(
            1 - stats.committed_mispredictions / stats.committed_branches
        )
        assert stats.all_accuracy_or_none() == pytest.approx(
            1 - stats.fetched_mispredictions / stats.fetched_branches
        )
        assert stats.ipc_or_none() == pytest.approx(
            stats.committed_instructions / stats.cycles
        )


class TestDecodedProgram:
    def test_run_lengths_stop_at_control_and_memory(self):
        program = assemble(
            """
            addi r1, r0, 1
            addi r2, r0, 2
            lw   r3, 0(r0)
            addi r4, r0, 4
            bne  r1, r0, 6
            addi r5, r0, 5
            halt
            """
        )
        decoded = decode_program(program)
        assert decoded.run_len[0] == 2  # two ALU ops, then the load
        assert decoded.run_len[1] == 1
        assert decoded.run_len[2] == 0  # load is not a plain run
        assert decoded.run_len[3] == 1  # ALU op, then the branch
        assert decoded.run_len[4] == 0

    def test_pickle_round_trip_rebuilds_closures(self):
        program = small_program(iterations=5)
        decoded = decode_program(program)
        clone = pickle.loads(pickle.dumps(decoded))
        assert clone.kinds == decoded.kinds
        assert clone.run_len == decoded.run_len
        assert clone.imm == decoded.imm
        # closures are process-local: the clone rebuilds them lazily
        # and the rebuilt engine is byte-identical
        simulator = PipelineSimulator(
            program, GsharePredictor(), decoded=clone, fast=True
        )
        reference = PipelineSimulator(program, GsharePredictor(), fast=False)
        assert_equivalent(
            reference, reference.run(), simulator, simulator.run()
        )

    def test_same_instruction_shares_one_closure(self):
        # closures are interned per process: the same plain instruction
        # or branch at two PCs, in one program or in two, and in an
        # unpickled copy, is one function object
        first = decode_program(assemble(
            "addi r1, r0, 1\naddi r1, r0, 1\nbne r1, r0, 0\nhalt"
        ))
        second = decode_program(assemble(
            "addi r2, r0, 1\naddi r1, r0, 1\nbne r1, r0, 0\nhalt"
        ))
        plain = first.plain_ops[0]
        assert plain is not None
        assert first.plain_ops[1] is plain
        assert second.plain_ops[1] is plain
        assert second.plain_ops[0] is not plain
        assert second.branch_ops[2] is first.branch_ops[2]
        clone = pickle.loads(pickle.dumps(first))
        assert clone.plain_ops[0] is plain
        assert clone.branch_ops[2] is first.branch_ops[2]

    def test_env_gate_disables_fast_path(self, knobs):
        knobs(pipeline_fast=False)
        assert not settings.current().pipeline_fast
        simulator = PipelineSimulator(small_program(iterations=5), GsharePredictor())
        assert simulator._decoded is None
        knobs(pipeline_fast=True)
        assert settings.current().pipeline_fast
        simulator = PipelineSimulator(small_program(iterations=5), GsharePredictor())
        assert isinstance(simulator._decoded, DecodedProgram)
