"""Backend registry + refactor-equivalence property suite.

Two nets, matching the frontend/backend split:

* the refactored **in-order** backend (now one plugin among several)
  must still produce bit-identical results between its fast engines and
  the reference ``machine.step()`` loop -- same stats block, distance
  counts, both quadrant maps, and the same final architectural machine
  state, with the reference loop's branch log recounting to the same
  distance counts -- across Hypothesis-composed random programs,
  predictors and estimator attachments;
* the **out-of-order** backend (plain, gated and eager) must be
  bit-identical between the fused engine and the reference loop --
  the same digest plus the rename state and the window-depth
  histogram -- and self-consistent: the same cell run whole, run
  segmented (paused at arbitrary instruction stops), and
  pickled/unpickled at every boundary must be indistinguishable on
  either fetch engine, and its committed architectural state must
  equal the golden functional machine.

Plus unit coverage for the registry surface itself
(:func:`normalize_backend` / :func:`create_simulator`), the OoO rename
free-list conservation invariant, and the window-depth histogram
contract behind the report's figure 8/9 extension.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import JRSEstimator, MispredictionDistanceEstimator
from repro.engine import workload_program
from repro.isa import Machine
from repro.isa.instructions import NUM_REGISTERS
from repro.pipeline import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    DEPTH_HISTOGRAM_KEY,
    DistanceCounts,
    OutOfOrderSimulator,
    PipelineSimulator,
    create_simulator,
    normalize_backend,
)
from repro.predictors import make_predictor
from repro.speculation import (
    EagerOutOfOrderSimulator,
    EagerPipelineSimulator,
    GatedOutOfOrderSimulator,
    GatedPipelineSimulator,
)
from repro.speculation.dualpath import EAGER_SIMULATORS
from repro.speculation.gating import GATED_SIMULATORS
from repro.workloads.generator import generate_program

# reuse the fuzz suite's program/geometry strategies so both nets see
# the same adversarial workload space
from test_pipeline_fuzz import pipeline_configs, workload_profiles


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------


class TestBackendRegistry:
    def test_names_and_default(self):
        assert DEFAULT_BACKEND == "inorder"
        assert set(BACKEND_NAMES) == {"inorder", "ooo"}

    def test_normalize_accepts_none_and_names(self):
        assert normalize_backend(None) == "inorder"
        assert normalize_backend("") == "inorder"
        assert normalize_backend("inorder") == "inorder"
        assert normalize_backend("ooo") == "ooo"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError, match="inorder"):
            normalize_backend("tomasulo")

    def test_create_simulator_dispatches(self):
        program = workload_program("compress", 5)
        inorder = create_simulator(program, make_predictor("gshare"))
        assert type(inorder) is PipelineSimulator
        ooo = create_simulator(
            program, make_predictor("gshare"), backend="ooo"
        )
        assert type(ooo) is OutOfOrderSimulator

    def test_backends_share_the_decoded_program(self):
        # every backend reads the per-workload decoded memo: an ooo cell
        # does not decode its own copy of the program
        from repro.harness.shard import build_cell_simulator

        inorder = build_cell_simulator("compress", "gshare", 5, "inorder")
        ooo = build_cell_simulator("compress", "gshare", 5, "ooo")
        assert type(ooo) is OutOfOrderSimulator
        assert inorder._decoded is not None
        assert ooo._decoded is inorder._decoded

    def test_ooo_rejects_degenerate_geometry(self):
        program = workload_program("compress", 5)
        for kwargs in ({"window": 0}, {"issue_width": 0}, {"commit_width": 0}):
            with pytest.raises(ValueError):
                OutOfOrderSimulator(
                    program, make_predictor("gshare"), **kwargs
                )

    def test_speculation_simulator_maps_cover_all_backends(self):
        assert set(GATED_SIMULATORS) == set(BACKEND_NAMES)
        assert set(EAGER_SIMULATORS) == set(BACKEND_NAMES)


# ----------------------------------------------------------------------
# shared digest helpers (the full observable surface of a finished cell)
# ----------------------------------------------------------------------


def _record_columns(simulator):
    """All 11 columns of the reference engine's branch log."""
    records = simulator.records
    return (
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


def _check_log(simulator, result, fast):
    """A fused run logs no branch; a reference run logs every fetched
    branch, and its log recounts to the run's distance counts."""
    if fast:
        assert len(simulator.records) == 0
    else:
        assert len(simulator.records) == result.stats.fetched_branches
        assert DistanceCounts.from_store(simulator.records) == result.distances


def _digest(simulator, result):
    """Stats, distance counts, quadrants, machine state."""
    machine = simulator.machine
    return (
        dataclasses.asdict(result.stats),
        list(machine.regs),
        dict(machine.memory),
        machine.pc,
        machine.halted,
        machine.instructions_retired,
        {n: vars(q).copy() for n, q in result.quadrants_committed.items()},
        {n: vars(q).copy() for n, q in result.quadrants_all.items()},
        result.distances,
    )


def _estimators(with_estimators):
    if not with_estimators:
        return {}
    return {
        "jrs": JRSEstimator(table_size=256, threshold=7),
        "dist": MispredictionDistanceEstimator(3),
    }


# ----------------------------------------------------------------------
# property net 1: the refactored in-order backend is still bit-exact
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag", "bimodal")),
    st.booleans(),
)
def test_inorder_fast_and_reference_identical_after_refactor(
    profile, config, predictor_name, with_estimators
):
    """Random program x predictor x estimators: the fast engines and
    the reference loop (the pre-refactor semantics, now carrying the
    backend dispatch/retire hooks) stay indistinguishable, and both
    equal the golden functional machine."""
    program = generate_program(profile)
    digests = []
    for fast in (False, True):
        simulator = create_simulator(
            program,
            make_predictor(predictor_name),
            backend="inorder",
            config=config,
            estimators=_estimators(with_estimators),
            fast=fast,
        )
        result = simulator.run()
        _check_log(simulator, result, fast)
        digests.append(_digest(simulator, result))
    assert digests[0] == digests[1]
    golden = Machine(program)
    golden.run()
    stats, regs, memory, *_ = digests[0]
    assert regs == list(golden.regs)
    assert memory == dict(golden.memory)
    assert stats["committed_instructions"] == golden.instructions_retired


# ----------------------------------------------------------------------
# property net 2: out-of-order self-consistency + architectural truth
# ----------------------------------------------------------------------


@st.composite
def ooo_simulators(draw):
    """(class, constructor keywords, attach estimators) over the three
    OoO simulators; gating and forking need an estimator to act on."""
    kind = draw(st.sampled_from(("ooo", "gated", "eager")))
    if kind == "gated":
        threshold = draw(st.integers(min_value=1, max_value=3))
        return (
            GatedOutOfOrderSimulator,
            {"gate_on": "jrs", "gate_threshold": threshold},
            True,
        )
    if kind == "eager":
        return EagerOutOfOrderSimulator, {"fork_on": "jrs"}, True
    geometry = {
        "window": draw(st.sampled_from((8, 32, 256))),
        "issue_width": draw(st.integers(min_value=1, max_value=8)),
        "commit_width": draw(st.integers(min_value=1, max_value=8)),
    }
    return OutOfOrderSimulator, geometry, draw(st.booleans())


def _ooo_state(simulator, result):
    """The digest plus the rename state and the depth histogram."""
    return (
        _digest(simulator, result),
        list(simulator._rename_map),
        list(simulator._free_regs),
        dict(simulator._rename_of),
        dict(result.stats.extra.get(DEPTH_HISTOGRAM_KEY, {})),
    )


@settings(max_examples=15, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag", "bimodal")),
    ooo_simulators(),
)
def test_ooo_fast_and_reference_identical(
    profile, config, predictor_name, simulator_spec
):
    """Random program x predictor x OoO simulator: the pre-decoded fast
    fetch and the reference loop leave identical stats, distance
    counts, quadrants, machine state, rename state and depth histogram
    (the reference loop's branch log recounting to those counts), and
    both equal the golden functional machine."""
    simulator_class, kwargs, with_estimators = simulator_spec
    program = generate_program(profile)
    states = []
    for fast in (False, True):
        simulator = simulator_class(
            program,
            make_predictor(predictor_name),
            config=config,
            estimators=_estimators(with_estimators),
            fast=fast,
            **kwargs,
        )
        result = simulator.run()
        _check_log(simulator, result, fast)
        states.append(_ooo_state(simulator, result))
    assert states[0] == states[1]
    golden = Machine(program)
    golden.run()
    stats, regs, memory, *_ = states[0][0]
    assert regs == list(golden.regs)
    assert memory == dict(golden.memory)
    assert stats["committed_instructions"] == golden.instructions_retired


def test_ooo_fast_path_never_steps_the_machine(monkeypatch):
    """``fast=True`` really runs the fused engine for every simulator
    class: a fallback to the reference engine would call
    ``PipelineSimulator.step_cycle`` and ``Machine.step``, which the
    reference run below shows are seen."""
    steps = []
    cycles = []
    step = Machine.step
    step_cycle = PipelineSimulator.step_cycle

    def counting_step(machine):
        steps.append(machine.pc)
        return step(machine)

    def counting_step_cycle(simulator):
        cycles.append(simulator.cycle)
        return step_cycle(simulator)

    monkeypatch.setattr(Machine, "step", counting_step)
    monkeypatch.setattr(PipelineSimulator, "step_cycle", counting_step_cycle)
    program = workload_program("compress", 30)
    for simulator_class, kwargs in (
        (PipelineSimulator, {}),
        (OutOfOrderSimulator, {}),
        (GatedPipelineSimulator, {"gate_on": "jrs"}),
        (GatedOutOfOrderSimulator, {"gate_on": "jrs"}),
        (EagerPipelineSimulator, {"fork_on": "jrs"}),
        (EagerOutOfOrderSimulator, {"fork_on": "jrs"}),
    ):
        simulator = simulator_class(
            program,
            make_predictor("gshare"),
            estimators=_estimators(True),
            fast=True,
            **kwargs,
        )
        result = simulator.run(max_instructions=3000)
        assert result.stats.committed_instructions == 3000
    assert steps == []
    assert cycles == []
    reference = OutOfOrderSimulator(program, make_predictor("gshare"), fast=False)
    reference.run(max_instructions=100)
    assert steps
    assert cycles


@pytest.mark.parametrize("fast", (False, True), ids=("reference", "fast"))
@settings(max_examples=10, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling")),
    st.booleans(),
)
def test_ooo_whole_segmented_and_pickled_identical(
    fast, profile, config, predictor_name, with_estimators
):
    """The same OoO cell run whole, paused at instruction boundaries,
    and pickle-round-tripped at every pause produces identical digests
    and matches the golden machine's architectural state, on either
    fetch engine."""
    program = generate_program(profile)

    def build():
        return OutOfOrderSimulator(
            program,
            make_predictor(predictor_name),
            config=config,
            estimators=_estimators(with_estimators),
            fast=fast,
            window=64,
            issue_width=4,
            commit_width=4,
        )

    whole = build()
    whole_result = whole.run()
    _check_log(whole, whole_result, fast)
    whole_digest = _digest(whole, whole_result)
    total = whole.machine.instructions_retired

    stops = [s for s in (total // 3, 2 * total // 3) if 0 < s < total]
    split = build()
    for stop in stops:
        split.run(stop_instructions=stop)
        split = pickle.loads(pickle.dumps(split))
    split_digest = _digest(split, split.run())
    assert split_digest == whole_digest
    assert _record_columns(split) == _record_columns(whole)

    golden = Machine(program)
    golden.run()
    assert whole.machine.regs == golden.regs
    assert whole.machine.memory == golden.memory
    assert (
        whole_digest[0]["committed_instructions"]
        == golden.instructions_retired
    )


@settings(max_examples=10, deadline=None)
@given(workload_profiles(), pipeline_configs())
def test_ooo_rename_free_list_conserved(profile, config):
    """After a completed run every physical register is accounted for:
    32 unique map entries + a full free list, no leaked writers."""
    program = generate_program(profile)
    simulator = OutOfOrderSimulator(
        program,
        make_predictor("gshare"),
        config=config,
        window=32,
        issue_width=2,
        commit_width=2,
    )
    simulator.run()
    assert simulator._rename_of == {}  # every writer retired or squashed
    mapped = set(simulator._rename_map)
    free = set(simulator._free_regs)
    assert len(mapped) == NUM_REGISTERS
    assert len(free) == len(simulator._free_regs)  # no duplicates
    assert not (mapped & free)
    assert mapped | free == set(range(NUM_REGISTERS + 32))


# ----------------------------------------------------------------------
# window-depth histogram (figs 8/9 extension) + mixin composition
# ----------------------------------------------------------------------


class TestDepthHistogram:
    def test_ooo_records_one_sample_per_recovery(self):
        program = workload_program("compress", 30)
        simulator = OutOfOrderSimulator(program, make_predictor("gshare"))
        result = simulator.run(max_instructions=4000)
        histogram = result.stats.extra.get(DEPTH_HISTOGRAM_KEY)
        assert histogram, "a mispredicting OoO run must record depths"
        assert sum(histogram.values()) == result.stats.committed_mispredictions
        assert all(depth >= 0 for depth in histogram)
        assert max(histogram) <= simulator.config.window

    def test_inorder_never_writes_the_key(self):
        program = workload_program("compress", 30)
        simulator = create_simulator(program, make_predictor("gshare"))
        result = simulator.run(max_instructions=4000)
        assert result.stats.committed_mispredictions > 0
        assert DEPTH_HISTOGRAM_KEY not in result.stats.extra


class TestSpeculationMixins:
    def _run(self, cls, **kwargs):
        program = workload_program("compress", 30)
        predictor = make_predictor("gshare")
        simulator = cls(
            program,
            predictor,
            estimators={"x": JRSEstimator(table_size=256, threshold=7)},
            **kwargs,
        )
        result = simulator.run(max_instructions=4000)
        golden = Machine(program)
        golden.run(simulator.machine.instructions_retired)
        assert simulator.machine.regs == golden.regs
        return simulator, result

    def test_gated_ooo_composes(self):
        simulator, __ = self._run(
            GatedOutOfOrderSimulator, gate_on="x", gate_threshold=1
        )
        assert isinstance(simulator, OutOfOrderSimulator)
        assert simulator.gated_cycles > 0

    def test_eager_ooo_composes(self):
        simulator, __ = self._run(EagerOutOfOrderSimulator, fork_on="x")
        assert isinstance(simulator, OutOfOrderSimulator)
        assert simulator.eager_forks > 0
