"""Property-based fuzzing of the speculative pipeline.

Hypothesis composes random workload profiles (arbitrary mixes of site
kinds, seeds and layouts) and random pipeline geometries; for every
sample the three executions of the same program must agree:

* pure functional machine (golden),
* fast tracer,
* speculative pipeline's committed stream,

for any predictor, any estimator attachment, and any (valid) pipeline
configuration.  This is the strongest correctness net in the suite: a
bug in squash/rollback, journal handling, history repair or fetch
gating shows up as an architectural-state divergence here.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
    SaturatingCountersEstimator,
)
from repro.engine import trace_branches
from repro.isa import Machine
from repro.pipeline import (
    CacheConfig,
    DistanceCounts,
    PipelineConfig,
    PipelineSimulator,
)
from repro.predictors import make_predictor
from repro.speculation import EagerPipelineSimulator, GatedPipelineSimulator
from repro.workloads.generator import GuardSpec, WorkloadProfile, generate_program
from repro.workloads.sites import (
    AlternatingSite,
    BiasedSite,
    CorrelatedSite,
    LoopSite,
    PatternSite,
    WalkSite,
)

from test_speculation_inversion import estimator_state


@st.composite
def branch_sites(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    shift = draw(st.integers(min_value=12, max_value=21))
    threshold = draw(st.integers(min_value=0, max_value=1024))
    if kind == 0:
        return BiasedSite(
            threshold=threshold,
            field_shift=shift,
            advance_lcg=draw(st.booleans()),
        )
    if kind == 1:
        return CorrelatedSite(threshold=threshold, field_shift=shift)
    if kind == 2:
        length = draw(st.integers(min_value=1, max_value=6))
        bits = tuple(draw(st.integers(min_value=0, max_value=1)) for __ in range(length))
        if all(bit == bits[0] for bit in bits):
            bits = bits + (1 - bits[0],)
        return PatternSite(pattern=bits)
    if kind == 3:
        trip_min = draw(st.integers(min_value=1, max_value=5))
        trip_max = trip_min + draw(st.integers(min_value=0, max_value=5))
        return LoopSite(trip_min=trip_min, trip_max=trip_max, field_shift=shift)
    if kind == 4:
        return AlternatingSite()
    return WalkSite(
        array_words=draw(st.integers(min_value=1, max_value=64)),
        stride=draw(st.integers(min_value=1, max_value=7)),
        threshold=threshold,
    )


@st.composite
def workload_profiles(draw):
    sites = tuple(draw(st.lists(branch_sites(), min_size=1, max_size=10)))
    guards = {}
    for index in range(len(sites)):
        if draw(st.booleans()) and draw(st.booleans()):  # ~25% guarded
            guards[index] = GuardSpec(
                field_shift=draw(st.integers(min_value=12, max_value=21)),
                threshold=draw(st.integers(min_value=0, max_value=1024)),
            )
    return WorkloadProfile(
        name="fuzz",
        description="hypothesis-composed profile",
        sites=sites,
        guards=guards,
        subroutine_group=draw(st.sampled_from((0, 0, 3))),
        lcg_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        data_seed=draw(st.integers(min_value=0, max_value=2**16)),
        default_iterations=draw(st.integers(min_value=1, max_value=25)),
    )


@st.composite
def pipeline_configs(draw):
    fetch_width = draw(st.integers(min_value=1, max_value=8))
    return PipelineConfig(
        fetch_width=fetch_width,
        commit_width=draw(st.integers(min_value=1, max_value=8)),
        window=max(fetch_width, draw(st.sampled_from((8, 16, 64)))),
        resolve_stage=draw(st.integers(min_value=1, max_value=12)),
        mispredict_penalty=draw(st.integers(min_value=0, max_value=8)),
        icache=CacheConfig(size_words=1024, line_words=8, associativity=2),
        dcache=CacheConfig(size_words=512, line_words=4, associativity=2),
    )


@settings(max_examples=25, deadline=None)
@given(workload_profiles())
def test_tracer_equals_machine_on_random_programs(profile):
    program = generate_program(profile)
    machine = Machine(program)
    golden = []
    while not machine.halted:
        result = machine.step()
        if result.taken is not None:
            golden.append((result.pc, result.taken))
    traced = trace_branches(program)
    assert list(traced.trace) == golden
    assert traced.stats.instructions == machine.instructions_retired


def _golden_branches(program):
    """The Machine's ``(pc, taken, steps so far)`` per branch, and its
    total step count (the last step is the halt)."""
    machine = Machine(program)
    golden = []
    while not machine.halted:
        result = machine.step()
        if result.taken is not None:
            golden.append((result.pc, result.taken, machine.instructions_retired))
    return golden, machine.instructions_retired


@settings(max_examples=25, deadline=None)
@given(workload_profiles(), st.data())
def test_tracer_max_steps_cutoff_matches_machine(profile, data):
    """A ``max_steps`` cut-off, inside a plain run or anywhere else,
    stops the tracer exactly where the Machine would be after that
    many steps."""
    program = generate_program(profile)
    golden, total = _golden_branches(program)
    max_steps = data.draw(st.integers(min_value=0, max_value=total + 3))
    traced = trace_branches(program, max_steps=max_steps)
    expected = [(pc, taken) for pc, taken, steps in golden if steps <= max_steps]
    assert list(traced.trace) == expected
    assert traced.stats.instructions == min(max_steps, total)
    assert traced.stats.branches == len(expected)
    assert traced.stats.taken_branches == sum(taken for __, taken in expected)
    assert traced.stats.halted == (max_steps >= total)


@settings(max_examples=25, deadline=None)
@given(workload_profiles(), st.data())
def test_tracer_max_branches_cutoff_matches_machine(profile, data):
    """A ``max_branches`` cut-off stops the tracer right after that
    branch, with the Machine's step count at that point."""
    program = generate_program(profile)
    golden, total = _golden_branches(program)
    max_branches = data.draw(st.integers(min_value=1, max_value=len(golden) + 3))
    traced = trace_branches(program, max_branches=max_branches)
    kept = golden[:max_branches]
    expected = [(pc, taken) for pc, taken, __ in kept]
    assert list(traced.trace) == expected
    assert traced.stats.branches == len(expected)
    assert traced.stats.taken_branches == sum(taken for __, taken in expected)
    if max_branches <= len(golden):
        assert traced.stats.instructions == kept[-1][2]
        assert not traced.stats.halted
    else:
        assert traced.stats.instructions == total
        assert traced.stats.halted


@settings(max_examples=20, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag", "bimodal")),
)
def test_pipeline_equals_machine_on_random_programs(profile, config, predictor_name):
    program = generate_program(profile)
    predictor = make_predictor(predictor_name)
    simulator = PipelineSimulator(
        program,
        predictor,
        config=config,
        estimators={
            "jrs": JRSEstimator(table_size=256, threshold=7),
            "dist": MispredictionDistanceEstimator(3),
        },
    )
    result = simulator.run()
    golden = Machine(program)
    golden.run()
    assert simulator.machine.halted
    assert simulator.machine.regs == golden.regs
    assert simulator.machine.memory == golden.memory
    assert result.stats.committed_instructions == golden.instructions_retired
    # the tally counted every fetched and every committed branch once
    distances, stats = result.distances, result.stats
    fetched = (stats.fetched_branches, stats.fetched_mispredictions)
    committed = (stats.committed_branches, stats.committed_mispredictions)
    for histogram, expected in (
        (distances.precise_all, fetched),
        (distances.perceived_all, fetched),
        (distances.precise_committed, committed),
        (distances.perceived_committed, committed),
    ):
        assert (sum(histogram[0]), sum(histogram[1])) == expected


#: Estimators the fuzzed engine identity may attach: the five the fused
#: loop inlines with gshare, and satcnt, which it never inlines.
FUZZ_ESTIMATORS = {
    "jrs": lambda: JRSEstimator(table_size=256, threshold=7),
    "jrs-plain": lambda: JRSEstimator(table_size=256, threshold=7, enhanced=False),
    "distance": lambda: MispredictionDistanceEstimator(4),
    "boost2-distance": lambda: BoostedEstimator(
        MispredictionDistanceEstimator(4), k=2
    ),
    "boost2-jrs": lambda: BoostedEstimator(
        JRSEstimator(table_size=256, threshold=7), k=2
    ),
    "satcnt": lambda: SaturatingCountersEstimator(counter_bits=2),
}

#: Simulator class and speculation-control keywords per fuzzed front end.
FUZZ_SIMULATORS = {
    "plain": (PipelineSimulator, {}),
    "gated": (GatedPipelineSimulator, {"gate_on": "est", "gate_threshold": 1}),
    "gated2": (GatedPipelineSimulator, {"gate_on": "est", "gate_threshold": 2}),
    "eager": (EagerPipelineSimulator, {"fork_on": "est"}),
}


@settings(max_examples=20, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag")),
    st.sampled_from((None, *FUZZ_ESTIMATORS)),
    st.sampled_from(tuple(FUZZ_SIMULATORS)),
    st.sampled_from((None, 7, 60, 500)),
)
def test_fast_engine_equals_reference_engine(
    profile, config, predictor_name, estimator_name, simulator_name, budget
):
    """Fast/slow byte identity under fuzzed programs and geometries.

    Covers early stops (``budget``), misprediction recovery (random
    predictors on random branch mixes) and cache-miss congestion (the
    tiny fuzz cache geometries miss constantly), with no estimator or
    one (inlined with gshare, or through the protocol) on a plain,
    gated or eager front end -- the full cross product the golden CI
    report legs only sample.
    """
    if estimator_name is None:
        simulator_name = "plain"  # gating and forking need an estimator
    simulator_class, kwargs = FUZZ_SIMULATORS[simulator_name]
    program = generate_program(profile)
    runs = []
    for fast in (False, True):
        estimators = (
            {"est": FUZZ_ESTIMATORS[estimator_name]()} if estimator_name else {}
        )
        simulator = simulator_class(
            program,
            make_predictor(predictor_name),
            config=config,
            estimators=estimators,
            fast=fast,
            **kwargs,
        )
        runs.append((simulator, simulator.run(max_instructions=budget)))
    (slow_sim, slow), (fast_sim, fast) = runs
    assert dataclasses.asdict(slow.stats) == dataclasses.asdict(fast.stats)
    for table in ("quadrants_committed", "quadrants_all"):
        assert {
            name: vars(counts) for name, counts in getattr(slow, table).items()
        } == {name: vars(counts) for name, counts in getattr(fast, table).items()}
    assert [
        estimator_state(estimator) for estimator in slow_sim.estimators.values()
    ] == [estimator_state(estimator) for estimator in fast_sim.estimators.values()]
    for counter in ("gated_cycles", "eager_forks", "eager_covered", "eager_wasted_slots"):
        assert getattr(slow_sim, counter) == getattr(fast_sim, counter), counter
    assert slow_sim.machine.regs == fast_sim.machine.regs
    assert slow_sim.machine.memory == fast_sim.machine.memory
    assert slow_sim.machine.pc == fast_sim.machine.pc
    for side in ("icache", "dcache"):
        slow_cache = getattr(slow_sim, side)
        fast_cache = getattr(fast_sim, side)
        assert (slow_cache.hits, slow_cache.misses) == (
            fast_cache.hits,
            fast_cache.misses,
        )
    assert slow.distances == fast.distances
    # the reference engine's log is consistent and recounts to its
    # tally; the fused engine logs nothing
    for record in slow_sim.branch_records:
        assert (record.resolve_cycle is not None) == record.committed
    assert len(slow_sim.records) == slow.stats.fetched_branches
    assert DistanceCounts.from_store(slow_sim.records) == slow.distances
    assert len(fast_sim.records) == 0
    if budget is not None:
        # the commit stage never overshoots the instruction budget
        assert fast.stats.committed_instructions <= budget


@settings(max_examples=15, deadline=None)
@given(workload_profiles(), pipeline_configs())
def test_dualpath_equals_machine_on_random_programs(profile, config):
    program = generate_program(profile)
    predictor = make_predictor("gshare")
    simulator = EagerPipelineSimulator(
        program,
        predictor,
        config=config,
        estimators={"fork": JRSEstimator(table_size=256, threshold=12)},
        fork_on="fork",
    )
    result = simulator.run()
    golden = Machine(program)
    golden.run()
    assert simulator.machine.regs == golden.regs
    assert simulator.machine.memory == golden.memory
    assert result.stats.committed_instructions == golden.instructions_retired
