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
  the same digest plus the whole timing state (register ready table,
  issue-port ledger) and the window-depth histogram --
  and self-consistent: the same cell run whole, run
  segmented (paused at arbitrary instruction stops), and
  pickled/unpickled at every boundary must be indistinguishable on
  either fetch engine, and its committed architectural state must
  equal the golden functional machine.

Plus unit coverage for the registry surface itself
(:func:`normalize_backend` / :func:`create_simulator`), the register
ready table held in lockstep to the physical-register rename model it
replaced (:class:`RenameModel`), known-answer OoO programs, and the
window-depth histogram contract behind the report's figure 8/9
extension.
"""

import dataclasses
import pickle
import random
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import JRSEstimator, MispredictionDistanceEstimator
from repro.engine import workload_program
from repro.isa import Machine, Program, assemble
from repro.isa.instructions import (
    LINK_REG,
    NUM_REGISTERS,
    Instruction,
    OpCategory,
    Opcode,
)
from repro.pipeline import (
    BACKEND_NAMES,
    CacheConfig,
    DEFAULT_BACKEND,
    DEPTH_HISTOGRAM_KEY,
    DistanceCounts,
    OutOfOrderSimulator,
    PipelineConfig,
    PipelineSimulator,
    create_simulator,
    decode_program,
    decoded_run,
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


def toy_backend(base, hook):
    """A subclass of ``base`` whose ``hook`` counts its calls: a timing
    model of its own, as far as the fused engine can tell."""

    def counting(self, *args):
        self.toy_calls += 1
        return getattr(base, hook)(self, *args)

    return type(f"Toy{base.__name__}", (base,), {hook: counting, "toy_calls": 0})


class TestUncarriedTimingModel:
    """The fused loop carries the in-order and out-of-order timing
    models inline and calls no backend hook, so it refuses a class with
    other hooks; the reference engine, which calls them, runs it."""

    @pytest.mark.parametrize(
        "base, hook",
        [
            (PipelineSimulator, "_dispatch"),
            (OutOfOrderSimulator, "_checkpoint"),
            (OutOfOrderSimulator, "_rollback"),
        ],
    )
    def test_fused_engine_refuses_and_reference_runs(self, base, hook, knobs):
        knobs(pipeline_fast=True)  # what fast=None follows
        toy = toy_backend(base, hook)
        program = workload_program("compress", 30)
        for fast in (True, None):
            with pytest.raises(TypeError, match="fast=False"):
                toy(program, make_predictor("gshare"), fast=fast)
        simulator = toy(program, make_predictor("gshare"), fast=False)
        result = simulator.run(max_instructions=2000)
        assert simulator.toy_calls
        reference = base(program, make_predictor("gshare"), fast=False)
        assert _digest(simulator, result) == _digest(
            reference, reference.run(max_instructions=2000)
        )


# ----------------------------------------------------------------------
# the out-of-order operand table
# ----------------------------------------------------------------------


def expected_operand_row(instruction, memory_latency):
    """(sources without r0, destination or -1, latency) of one
    instruction, read off its opcode category."""
    category = instruction.opcode.category
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2
    sources = {
        OpCategory.ALU_RRR: (rs1, rs2),
        OpCategory.ALU_RRI: (rs1,),
        OpCategory.LOAD: (rs1,),
        OpCategory.STORE: (rs1, rs2),
        OpCategory.BRANCH: (rs1, rs2),
        OpCategory.JUMP_REGISTER: (rs1,),
    }.get(category, ())
    writes_rd = category in (
        OpCategory.ALU_RRR,
        OpCategory.ALU_RRI,
        OpCategory.LUI,
        OpCategory.LOAD,
    )
    if instruction.opcode is Opcode.JAL:
        dest = LINK_REG
    else:
        dest = rd if writes_rd and rd != 0 else -1
    memory = category in (OpCategory.LOAD, OpCategory.STORE)
    return (
        tuple(reg for reg in sources if reg != 0),
        dest,
        memory_latency if memory else 1,
    )


def every_opcode_program():
    """Each opcode with r0 in every operand slot, then with random
    registers in every slot, fields its form ignores included."""
    rng = random.Random(7)
    instructions = []
    for opcode in Opcode:
        if opcode is Opcode.HALT:
            continue
        instructions.append(Instruction(opcode))
        for __ in range(4):
            rd, rs1, rs2 = (rng.randrange(NUM_REGISTERS) for __ in range(3))
            instructions.append(Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=1))
    instructions.append(Instruction(Opcode.HALT, rd=3, rs1=4, rs2=5))
    return Program(instructions=instructions)


class TestOperandTable:
    @pytest.mark.parametrize("memory_latency", [1, 2, 5])
    def test_table_equals_the_per_instruction_derivation(self, memory_latency):
        program = every_opcode_program()
        expected = [
            expected_operand_row(instruction, memory_latency)
            for instruction in program.instructions
        ]
        assert decode_program(program).operand_table(memory_latency) == expected
        config = PipelineConfig(cache_hit_latency=memory_latency)
        for fast in (True, False):
            simulator = OutOfOrderSimulator(
                program, make_predictor("gshare"), config=config, fast=fast
            )
            assert simulator._operands == expected

    def test_simulators_of_a_workload_share_one_table(self):
        from repro.harness.shard import build_cell_simulator

        decoded = decoded_run("compress", 5)
        program = workload_program("compress", 5)
        simulators = [
            build_cell_simulator("compress", name, 5, "ooo")
            for name in ("gshare", "mcfarling")
        ] + [
            create_simulator(
                program,
                make_predictor("gshare"),
                backend="ooo",
                decoded=decoded,
                fast=False,
            )
            for __ in range(2)
        ]
        table = decoded.operand_table(PipelineConfig().cache_hit_latency)
        assert all(simulator._operands is table for simulator in simulators)

    def test_pickling_drops_the_table(self):
        decoded = decode_program(workload_program("compress", 5))
        table = decoded.operand_table(2)
        restored = pickle.loads(pickle.dumps(decoded))
        assert restored._operand_tables is None
        assert restored.operand_table(2) == table


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
    """The digest plus the whole timing state (register ready table,
    issue-port ledger) and the depth histogram."""
    return (
        _digest(simulator, result),
        list(simulator._reg_ready),
        dict(simulator._issue_slots),
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
    counts, quadrants, machine state, timing state and depth histogram
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


class RenameModel:
    """The physical-register rename model the register ready table
    replaced: an architectural -> physical map over ``NUM_REGISTERS +
    window`` ready cycles, a free list, and one ``(arch, new, previous)``
    record per in-flight writer, freed at retire and walked youngest
    first at a squash."""

    def __init__(self, window):
        self.size = NUM_REGISTERS + window
        self.rename_map = list(range(NUM_REGISTERS))
        self.phys_ready = [0] * self.size
        self.free = deque(range(NUM_REGISTERS, self.size))
        self.writers = {}

    def dispatch(self, sequence, dest, complete):
        if dest >= 0:
            assert self.free, "a writer found the free list empty"
            new = self.free.popleft()
            self.writers[sequence] = (dest, new, self.rename_map[dest])
            self.rename_map[dest] = new
            self.phys_ready[new] = complete

    def retire(self, sequence):
        record = self.writers.pop(sequence, None)
        if record is not None:
            self.free.append(record[2])

    def rollback(self, squashed):
        for sequence in squashed:
            record = self.writers.pop(sequence, None)
            if record is not None:
                arch, new, previous = record
                self.rename_map[arch] = previous
                self.free.appendleft(new)

    def table(self):
        return [self.phys_ready[phys] for phys in self.rename_map]

    def check_conserved(self):
        """Every physical register is mapped, held by one in-flight
        writer as its previous mapping, or free, and only one of them."""
        mapped = set(self.rename_map)
        held = {previous for __, __, previous in self.writers.values()}
        free = set(self.free)
        assert len(mapped) == NUM_REGISTERS
        assert len(held) == len(self.writers)
        assert len(free) == len(self.free)
        assert not (mapped & held or mapped & free or held & free)
        assert mapped | held | free == set(range(self.size))


def lockstep_rename_model(simulator):
    """Wrap a reference-engine OoO ``simulator`` so a
    :class:`RenameModel` follows its dispatches, commits and recoveries.

    The dispatch wrapper computes the issue cycle from the model's own
    ready cycles and the simulator's issue ledger, and checks the
    simulator's ready cycle against it.  A recovery squashes the
    entries in flight and must land the model on the branch's
    checkpoint."""
    model = RenameModel(simulator.config.window)
    dispatch = simulator._dispatch
    commit_stage = simulator._commit_stage
    rollback = simulator._rollback

    def dispatch_in_lockstep(pc, ready_cycle, cycle):
        sources, dest, latency = simulator._operands[pc]
        issue = max(
            [cycle + 1]
            + [model.phys_ready[model.rename_map[reg]] for reg in sources]
        )
        while simulator._issue_slots.get(issue, 0) >= simulator.issue_width:
            issue += 1
        ready = dispatch(pc, ready_cycle, cycle)
        assert ready == max(issue + latency, ready_cycle)
        model.dispatch(simulator._inflight[-1].sequence, dest, issue + latency)
        return ready

    def commit_in_lockstep():
        # retiring and squashing touch disjoint writers and opposite
        # ends of the free list, so their order within a stage is moot
        heads = [
            entry.sequence
            for entry in islice(simulator._inflight, simulator.config.commit_width)
        ]
        before = simulator.stats.committed_instructions
        commit_stage()
        for sequence in heads[: simulator.stats.committed_instructions - before]:
            model.retire(sequence)

    def rollback_in_lockstep(depth, checkpoint):
        assert depth == len(simulator._inflight)
        model.rollback([entry.sequence for entry in reversed(simulator._inflight)])
        assert model.table() == checkpoint
        rollback(depth, checkpoint)

    simulator._dispatch = dispatch_in_lockstep
    simulator._commit_stage = commit_in_lockstep
    simulator._rollback = rollback_in_lockstep
    return model


@settings(max_examples=20, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.integers(min_value=8, max_value=256),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_ready_table_follows_the_rename_model(
    profile, config, window, issue_width, commit_width
):
    """After every cycle the register ready table equals the ready
    cycles of the rename map's physical registers, the free list holds
    one register per window slot no writer occupies (so a writer never
    finds it empty), and at the end every physical register is
    accounted for and no writer is left."""
    simulator = OutOfOrderSimulator(
        generate_program(profile),
        make_predictor("gshare"),
        config=config,
        fast=False,
        window=window,
        issue_width=issue_width,
        commit_width=commit_width,
    )
    model = lockstep_rename_model(simulator)
    while not simulator.done:
        simulator.step_cycle()
        assert model.table() == simulator._reg_ready
        assert len(model.free) == simulator.config.window - len(model.writers)
    model.check_conserved()
    assert model.writers == {}  # every writer retired or squashed


# ----------------------------------------------------------------------
# known-answer out-of-order programs
# ----------------------------------------------------------------------

#: One 64-word I-cache line holds each program below, so fetch misses
#: once, at cycle 0, and starts at cycle 10; the other defaults stay:
#: fetch 4 a cycle, resolve depth 3 (an instruction fetched at cycle f
#: commits no earlier than f + 3), a 3-cycle mispredict penalty and a
#: 2-cycle cache hit.  Dispatch takes the cycle after fetch, so an
#: instruction fetched at f issues at f + 1 at the earliest.
KNOWN_ANSWER_CONFIG = PipelineConfig(
    icache=CacheConfig(size_words=1024, line_words=64, miss_penalty=10)
)


class _CommitLog(deque):
    """An in-flight window that logs the pc of every entry leaving its
    head: both engines commit through ``popleft`` and squash through
    ``clear``."""

    def __init__(self):
        super().__init__()
        self.pcs = []

    def popleft(self):
        entry = super().popleft()
        self.pcs.append(entry[1] if isinstance(entry, list) else entry.pc)
        return entry


def known_answer_run(source, fast, config=KNOWN_ANSWER_CONFIG, **geometry):
    """Run ``source`` to its halt one cycle per ``run()`` call; return
    the simulator and its ``(commit cycle, pc)`` list in commit order."""
    simulator = OutOfOrderSimulator(
        assemble(source), make_predictor("gshare"), config=config, fast=fast,
        **geometry,
    )
    log = simulator._inflight = _CommitLog()
    commits = []
    while not simulator.done:
        cycle = simulator.cycle
        assert cycle < 100, "runaway known-answer program"
        seen = len(log.pcs)
        simulator.run(max_cycles=cycle + 1)
        commits += [(cycle, pc) for pc in log.pcs[seen:]]
    return simulator, commits


def addi_chain(dependent):
    """16 ``addi``s, each reading the one before it or none, then halt."""
    lines = [
        f"addi r1, r1, {k}" if dependent else f"addi r{k + 1}, r0, {k}"
        for k in range(16)
    ]
    return "\n".join(lines + ["halt"])


#: The mispredicted branch: a fresh gshare predicts ``bne`` not taken,
#: so fetch runs down the fall-through with four register writers (one
#: of them the branch's own source) and a halt, until the branch
#: resolves and fetch restarts at ``good``.
MISPREDICT_SOURCE = """
        addi r1, r0, 5
        bne r1, r0, good
        addi r2, r0, 1
        addi r3, r0, 2
        addi r1, r0, 9
        halt
good:   addi r4, r1, 1
        halt
"""


@pytest.mark.parametrize("fast", (False, True), ids=("reference", "fused"))
class TestKnownAnswerPrograms:
    """Cycle counts, commit cycles and depth histograms derived by hand
    from the model (each docstring shows the derivation), on both
    engines."""

    def test_dependent_chain(self, fast):
        """addi k issues at 11 + k, each a cycle after the one it reads,
        and completes at 12 + k; fetch groups of four at cycles 10-13
        floor commits at 13-16.  The halt (fetched at 14, issued at 15)
        commits behind addi 15 at 27."""
        simulator, commits = known_answer_run(addi_chain(True), fast)
        expected = [(13, 0), (13, 1)] + [(12 + k, k) for k in range(2, 16)]
        assert commits == expected + [(27, 16)]
        assert simulator.stats.cycles == 28
        assert DEPTH_HISTOGRAM_KEY not in simulator.stats.extra

    def test_independent_addis_eight_wide(self, fast):
        """Each fetch group of four issues together at the cycle after
        its fetch and completes a cycle later, before the resolve depth
        lets it commit: the groups commit at 13, 14, 15 and 16, and the
        halt at 17."""
        simulator, commits = known_answer_run(
            addi_chain(False), fast, issue_width=8
        )
        assert commits == [(13 + k // 4, k) for k in range(16)] + [(17, 16)]
        assert simulator.stats.cycles == 18
        assert DEPTH_HISTOGRAM_KEY not in simulator.stats.extra

    def test_independent_addis_one_wide(self, fast):
        """One issue port serialises what the operands do not: addi k
        issues at 11 + k and completes at 12 + k, and the halt takes
        the first free port, cycle 27, so it completes and commits at
        28."""
        simulator, commits = known_answer_run(
            addi_chain(False), fast, issue_width=1
        )
        expected = [(13, 0), (13, 1)] + [(12 + k, k) for k in range(2, 16)]
        assert commits == expected + [(28, 16)]
        assert simulator.stats.cycles == 29
        assert DEPTH_HISTOGRAM_KEY not in simulator.stats.extra

    @pytest.mark.parametrize("latency", (1, 2, 5))
    def test_load_use_pair(self, fast, latency):
        """The load issues at 11 and completes at 11 + latency, when its
        user issues; the user completes at 12 + latency.  Both commit no
        earlier than 13 (fetched at 10); the halt commits with the
        user."""
        config = dataclasses.replace(
            KNOWN_ANSWER_CONFIG, cache_hit_latency=latency
        )
        simulator, commits = known_answer_run(
            "lw r1, 0(r0)\naddi r2, r1, 1\nhalt", fast, config=config
        )
        load_at = max(11 + latency, 13)
        use_at = max(12 + latency, 13)
        assert commits == [(load_at, 0), (use_at, 1), (use_at, 2)]
        assert simulator.stats.cycles == use_at + 1
        assert DEPTH_HISTOGRAM_KEY not in simulator.stats.extra

    def test_mispredicted_branch(self, fast):
        """At 10 the first addi (complete 12) and the branch (issued at
        12 on its source, complete 13) are fetched, and fetch follows
        the wrong path; at 11 four wrong-path entries.  At 13 both
        commit and the branch's recovery squashes four entries (depth
        4); fetch restarts at 13 + 1 + 3 = 17, and ``good`` and its halt
        commit at 20."""
        simulator, commits = known_answer_run(MISPREDICT_SOURCE, fast)
        assert commits == [(13, 0), (13, 1), (20, 6), (20, 7)]
        assert simulator.stats.cycles == 21
        assert simulator.stats.squashed_instructions == 4
        assert simulator.stats.extra[DEPTH_HISTOGRAM_KEY] == {4: 1}
        assert simulator.machine.regs[4] == 6


@pytest.mark.parametrize("fast", (False, True), ids=("reference", "fused"))
def test_recovery_restores_the_ready_table(fast):
    """The wrong path's writers move the table; the recovery at cycle
    13 puts it back to what the branch saw at its fetch (cycle 10)."""
    simulator = OutOfOrderSimulator(
        assemble(MISPREDICT_SOURCE),
        make_predictor("gshare"),
        config=KNOWN_ANSWER_CONFIG,
        fast=fast,
    )
    simulator.run(max_cycles=11)
    at_fetch = list(simulator._reg_ready)
    assert at_fetch == [0, 12] + [0] * 30
    simulator.run(max_cycles=12)
    assert simulator._reg_ready[1:4] == [13, 13, 13]
    simulator.run(max_cycles=14)
    assert simulator.stats.committed_mispredictions == 1
    assert simulator._reg_ready == at_fetch
    assert simulator._issue_slots == {}


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


def test_issue_ledger_prune_identical_on_both_engines(monkeypatch):
    """The default 256-entry window never lets the issue-port ledger
    outgrow its prune bound (four windows of cycles) in the battery's
    cells; an 8-entry window with one issue port does, so both engines
    must prune it, and end in the same timing state."""
    prunes = {False: 0, True: 0}
    prune = OutOfOrderSimulator._prune_issue_slots

    def counting_prune(simulator, cycle):
        prunes[simulator._decoded is not None] += 1
        prune(simulator, cycle)

    monkeypatch.setattr(OutOfOrderSimulator, "_prune_issue_slots", counting_prune)
    program = workload_program("compress", 30)
    states = []
    for fast in (False, True):
        simulator = OutOfOrderSimulator(
            program, make_predictor("gshare"), fast=fast, window=8, issue_width=1
        )
        result = simulator.run(max_instructions=3000)
        assert result.stats.committed_instructions == 3000
        states.append(_ooo_state(simulator, result))
    assert prunes[False] and prunes[True] == prunes[False]
    assert states[0] == states[1]


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
