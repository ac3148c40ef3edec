"""Cycle-based speculative pipeline simulator.

This is the repository's stand-in for the paper's extended
SimpleScalar ``sim-outorder``: a 5-stage machine that

* fetches ``fetch_width`` instructions per cycle through an I-cache,
* executes every fetched instruction *functionally at decode* on the
  journaled :class:`~repro.isa.Machine` -- so, like the paper's
  simulator, it "knows the outcome of all branches at the point of
  instruction decode, even for branches that do not actually commit",
* follows the branch predictor down wrong paths, executing real
  wrong-path code until the mispredicted branch resolves
  ``resolve_stage`` cycles after fetch, then restores the branch's
  machine snapshot, squashes younger in-flight instructions, repairs
  the predictor's speculative history, and charges the additional
  ``mispredict_penalty`` cycles of recovery,
* resolves/commits in order (squashed instructions never update the
  predictor, the estimators, or architectural state).

Because the journaled machine *is* the architectural state, the
committed instruction stream provably equals the pure functional
execution -- an invariant the integration tests check directly.

The simulator counts every fetched conditional branch, and every
committed one, at two misprediction distances: the *precise* distance
(reset when a mispredicted branch is fetched; the oracle view of
Figures 6/7) and the *perceived* distance (reset when a misprediction
is detected at resolution; the implementable view of Figures 8/9).
Those four histograms are a
:class:`~repro.pipeline.records.DistanceTally` kept as the run goes,
and a :class:`PipelineResult` carries them as
:class:`~repro.pipeline.records.DistanceCounts`.  The reference engine
also logs each fetched branch, with the confidence estimates made at
fetch time, as a :class:`~repro.pipeline.records.BranchRecord` in
``simulator.records``: the tests' per-branch view.

Two engines share these semantics bit for bit, for every simulator
class.  A simulator picks one when it is built (``fast=``, else
``REPRO_PIPELINE_FAST``) and runs it for its whole life:

* the **reference engine** (``fast=False``) steps :meth:`Machine.step`
  once per fetched instruction and logs each fetched branch; ``run()``
  and :meth:`PipelineSimulator.step_cycle` both drive it.  It is the
  test oracle;
* the **fused engine** (the default) drives a
  :class:`~repro.pipeline.decode.DecodedProgram` from ``run()`` in one
  loop that inlines commit, resolve, recovery and fetch: straight-line
  plain runs execute as pre-specialised closures, consecutive same-line
  I-cache accesses are batched (an access to the most-recently-touched
  line is a guaranteed hit that cannot disturb LRU order, so the hit
  counter is bumped arithmetically), and non-branch instructions
  fetched in the same cycle share one grouped in-flight entry that
  commit drains by count.  It logs no branch, so its per-branch cost
  is the tally's two increments at fetch and two at commit.  It calls
  no backend hook: it carries both timing models inline, the in-order
  one and the out-of-order one of
  :class:`~repro.pipeline.ooo.OutOfOrderSimulator`, which times every
  instruction and so gets one entry per instruction.  Its in-flight
  entries keep the loop's list layout between runs and in segment
  snapshots, so it has no ``step_cycle()``.

The byte-identity tests and the CI golden report legs compare the two
engines end to end.

The front end -- fetch, branch prediction, confidence tagging, and the
two speculation-control decisions, fetch gating (``gate_on``) and
dual-path forking (``fork_on``) -- is state of this class that both
engines read; the gated and eager simulators of
:mod:`repro.speculation` only validate and set it.  The execution model
behind the front end is a backend.  The reference engine calls its
three hooks, ``_dispatch``, ``_checkpoint`` and ``_rollback`` (their
docstrings below define the surface); the fused engine carries each
shipped backend's model inline instead, and refuses (``TypeError``) a
class whose hooks are neither backend's, so a new backend adds its
model to both engines.  This class is itself the ``inorder`` backend;
:class:`repro.pipeline.ooo.OutOfOrderSimulator` swaps an R10K-style
out-of-order window in behind the same front end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from .. import settings
from ..confidence.base import ConfidenceEstimator
from ..confidence.inlined import inlined_parts
from ..confidence.jrs import JRSEstimator
from ..isa import Machine, MachineFault, Program
from ..isa.instructions import WORD_MASK, OpCategory
from ..metrics.quadrant import QuadrantCounts
from ..predictors.base import BranchPredictor
from ..predictors.gshare import GsharePredictor
from ..predictors.mcfarling import McFarlingPredictor
from .caches import Cache
from .config import PipelineConfig
from .decode import (
    K_BRANCH,
    K_HALT,
    K_JAL,
    K_JR,
    K_JUMP,
    K_LOAD,
    K_STORE,
    DecodedProgram,
    decode_program,
)
from .records import (
    BranchRecord,
    BranchRecordStore,
    DistanceCounts,
    DistanceTally,
    PipelineStats,
    grow_counts,
)


class _Inflight:
    """One in-flight instruction of the reference engine (the fused
    engine's entries are lists; see ``PipelineSimulator._run_fast``)."""

    __slots__ = (
        "sequence",
        "pc",
        "is_branch",
        "is_halt",
        "prediction",
        "assessments",
        "actual_taken",
        "mispredicted",
        "snapshot",
        "checkpoint",
        "ready_cycle",
        "perceived_distance",
        "record_index",
    )

    def __init__(self, sequence: int, pc: int, ready_cycle: int):
        self.sequence = sequence
        self.pc = pc
        self.is_branch = False
        self.is_halt = False
        self.prediction = None
        self.assessments: List[Tuple[str, ConfidenceEstimator, object]] = []
        self.actual_taken = False
        self.mispredicted = False
        self.snapshot = None
        self.ready_cycle = ready_cycle
        # a branch's ``perceived_distance`` (counted again at commit) and
        # ``record_index`` (its row in ``records``) are set at fetch, and
        # a ``checkpoint`` (the backend's) next to its ``snapshot``


def _count_low_confidence_inflight(simulator: PipelineSimulator, name: str) -> int:
    """Unresolved branches currently tagged low-confidence by ``name``
    (the reference engine's per-cycle gate rescan)."""
    count = 0
    for entry in simulator._inflight:
        if entry.is_branch:
            for estimator_name, __, assessment in entry.assessments:
                if estimator_name == name:
                    if not assessment.high_confidence:
                        count += 1
                    break
    return count


#: ``stats.extra`` key of the out-of-order backend's {window depth ->
#: mispredict count} histogram, recorded at every misprediction
#: recovery (both engines write it).
DEPTH_HISTOGRAM_KEY = "ooo_mispredict_window_depth"

#: The backend hooks: the reference engine's timing surface.
_BACKEND_HOOKS = ("_dispatch", "_checkpoint", "_rollback")


def _carries_ooo_timing(cls) -> bool:
    """Whether the fused loop times ``cls`` with the out-of-order model
    (its hooks are :class:`~repro.pipeline.ooo.OutOfOrderSimulator`'s)
    or the in-order one (the no-ops here).  The loop carries those two
    models inline and calls no hook, so any other hooks raise."""
    from .ooo import OutOfOrderSimulator  # ooo.py imports this module

    hooks = [getattr(cls, name) for name in _BACKEND_HOOKS]
    for model, ooo in ((PipelineSimulator, False), (OutOfOrderSimulator, True)):
        if hooks == [getattr(model, name) for name in _BACKEND_HOOKS]:
            return ooo
    raise TypeError(
        f"{cls.__name__} overrides a backend hook with a timing model the"
        " fused engine does not carry: build it with fast=False"
    )


def _forked_history(predictor: BranchPredictor):
    """The speculative global history register a fork splits per path,
    or ``None`` when the predictor keeps none."""
    history = getattr(predictor, "history", None)
    if history is not None and getattr(predictor, "speculative_history", False):
        return history
    return None


@dataclass
class PipelineResult:
    """The aggregates of a pipeline run, built only by
    :meth:`PipelineSimulator.result`.

    Its size does not grow with the run: no field holds per-branch data.
    """

    stats: PipelineStats
    #: Per-distance branch and misprediction counts (Figures 6-9).
    distances: DistanceCounts
    #: Estimator quadrants over committed branches only (resolved).
    quadrants_committed: Dict[str, QuadrantCounts]
    #: Estimator quadrants over every fetched branch.
    quadrants_all: Dict[str, QuadrantCounts]


class PipelineSimulator:
    """Speculative 5-stage pipeline over a program + predictor.

    Optional confidence ``estimators`` are consulted at fetch for every
    branch (wrong-path included, as in hardware) and resolved in order
    for committed branches only.

    ``fast`` selects the engine this simulator runs for its whole life:
    ``None`` (default) follows the installed ``REPRO_PIPELINE_FAST``
    setting, ``True``/``False`` force the fused engine / the reference
    loop.  ``decoded`` may supply a shared :class:`DecodedProgram` (e.g. the
    per-workload :func:`~repro.pipeline.decode.decoded_run` memo) to
    skip the decode; the reference loop ignores it.

    Speculation control is front-end state whose class defaults leave
    it off.  While ``gate_on`` names an attached estimator, fetch
    stalls in every cycle that has at least ``gate_threshold``
    unresolved branches that estimator tagged low-confidence
    (``gated_cycles`` counts those cycles).  While ``fork_on`` does, a
    low-confidence branch fetched on the known-good path forks both
    paths (see :mod:`repro.speculation.dualpath`).
    """

    # speculation control (class docstring); off while a name is None
    gate_on: Optional[str] = None
    gate_threshold = 1
    fork_on: Optional[str] = None
    fork_switch_penalty = 1  # fetch-stall cycles of a path switch
    gated_cycles = 0
    eager_forks = 0
    eager_covered = 0  # forks that hid a misprediction
    eager_wasted_slots = 0  # fetch slots fed to losing paths
    _active_fork = None  # the in-flight forked branch (one at a time)

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: PipelineConfig = None,
        estimators: Mapping[str, ConfidenceEstimator] = None,
        decoded: Optional[DecodedProgram] = None,
        fast: Optional[bool] = None,
    ):
        self.program = program
        self.predictor = predictor
        self.config = config or PipelineConfig()
        self.estimators = dict(estimators or {})
        self.machine = Machine(program)
        self.icache = Cache(self.config.icache)
        self.dcache = Cache(self.config.dcache)
        self.stats = PipelineStats()
        #: Figures 6-9's histograms, counted by both engines.
        self._tally = DistanceTally()
        #: The reference engine's per-branch log (empty after a fused run).
        self.records = BranchRecordStore()
        if fast is None:
            fast = settings.current().pipeline_fast
        if fast:
            _carries_ooo_timing(type(self))  # TypeError for uncarried hooks
            self._decoded = decoded if decoded is not None else decode_program(
                program
            )
        else:
            self._decoded = None
        #: ``_Inflight`` entries under the reference engine, the fused
        #: loop's lists under the fused one.
        self._inflight: Deque = deque()
        #: Instructions currently in flight (a fused group entry counts
        #: for its slot [2]); the window check everywhere.
        self._inflight_count = 0
        #: Fused engine: low-confidence branches in flight by ``gate_on``
        #: (the reference engine rescans the window instead).
        self._low_confidence_inflight = 0
        self._cycle = 0
        self._sequence = 0
        self._fetch_stalled_until = 0
        #: True when the speculative front end ran off the program (a
        #: wrong-path fault); cleared by misprediction recovery.
        self._fetch_faulted = False
        self._congestion = 0
        #: Unresolved mispredicted branches in flight (0 or more; >0
        #: means the front end is on a wrong path).
        self._unresolved_mispredictions = 0
        #: Branches fetched since the last mispredicted *fetch* (precise).
        self._precise_counter = 0
        #: Branches fetched since the last *detected* misprediction.
        self._perceived_counter = 0
        #: I-cache line of the most recent fused-engine fetch access: a
        #: repeat access is a guaranteed hit with LRU order unchanged.
        self._icache_line = -1
        self._program_done = False  # halt committed
        #: The reference engine's hard budget, read by ``_commit_stage``.
        self._max_instructions: Optional[int] = None
        self._quadrants_committed = {
            name: QuadrantCounts() for name in self.estimators
        }
        self._quadrants_all = {name: QuadrantCounts() for name in self.estimators}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the program's ``halt`` has committed."""
        return self._program_done

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def branch_records(self) -> List[BranchRecord]:
        """Record views of every branch the reference engine fetched so
        far (none after a fused ``run()``)."""
        return self.records.materialize()

    def step_cycle(self) -> None:
        """Advance one cycle of the reference engine: commit/resolve,
        then fetch.  Only a ``fast=False`` simulator has one: a fused
        simulator's in-flight entries are the fused loop's."""
        if self._decoded is not None:
            raise RuntimeError(
                "step_cycle() runs the reference engine: build the"
                " simulator with fast=False to step it"
            )
        self._commit_stage()
        if not self._program_done:
            self._fetch_stage()
        self._cycle += 1
        if self._congestion:
            self._congestion -= 1

    def run(
        self,
        max_cycles: int = 10_000_000,
        max_instructions: Optional[int] = None,
        stop_instructions: Optional[int] = None,
    ) -> PipelineResult:
        """Simulate until the program halts (committed) or a limit hits.

        When ``max_instructions`` binds, the run commits *exactly* that
        many instructions: the commit stage truncates its final commit
        group rather than overshooting by up to ``commit_width - 1``,
        so fixed-work comparisons (gated vs. baseline IPC) measure
        identical instruction counts.

        ``stop_instructions`` is a *soft* segment boundary for
        checkpointable runs: the loop pauses (checked only at the top
        of a cycle) once at least that many instructions have
        committed, without influencing commit-group widths -- so
        calling ``run`` again with the same ``max_instructions``
        continues the simulation cycle-for-cycle identically to a run
        that never paused.  A segment may therefore overshoot the soft
        boundary by up to ``commit_width - 1`` instructions; only the
        hard ``max_instructions`` budget truncates exactly.
        """
        if self._decoded is not None:
            return self._run_fast(max_cycles, max_instructions, stop_instructions)
        self._max_instructions = max_instructions
        try:
            while not self._program_done and self._cycle < max_cycles:
                if (
                    max_instructions is not None
                    and self.stats.committed_instructions >= max_instructions
                ):
                    break
                if (
                    stop_instructions is not None
                    and self.stats.committed_instructions >= stop_instructions
                ):
                    break
                self.step_cycle()
        finally:
            self._max_instructions = None
        return self.result()

    def _run_fast(
        self,
        max_cycles: int,
        max_instructions: Optional[int],
        stop_instructions: Optional[int] = None,
    ) -> PipelineResult:
        """The fused engine: one cycle loop over the pre-decoded program.

        Cycle-for-cycle identical to ``step_cycle``, but commit and
        fetch are inlined in one loop so per-cycle hook dispatch and
        local re-hoisting (the dominant cost at ~3 fetched instructions
        per cycle) happen once per *run* instead of once per cycle, and
        the per-branch ``_fetch_branch`` / ``_resolve_branch`` /
        ``_recover_from`` bodies are inlined (the workloads average one
        branch per ~5 instructions, so per-branch call frames are the
        next cost after per-cycle ones).  A branch costs no record: the
        loop counts it into the :class:`DistanceTally`'s lists, held in
        locals, and appends nothing else but its in-flight entry.  Every
        piece of simulator state this loop touches -- stat counters,
        congestion, stall deadlines, the misprediction-distance
        counters, the gating and fork state -- lives in locals and is
        written back in the ``finally`` block; that is only sound
        because *every* mutator of that state is inlined here.  The
        gate counts the low-confidence branches in flight (+1 at fetch,
        -1 at commit, 0 at squash) in ``_low_confidence_inflight``
        where the reference engine rescans the window.

        In-flight entries are plain lists (a Python class instantiation
        costs ~4x a list literal and entries are the hottest
        allocation), laid out like the ``_Inflight`` slots plus a count::

            [0]=sequence  [1]=pc         [2]=count       [3]=is_branch
            [4]=is_halt   [5]=prediction [6]=assessments [7]=actual_taken
            [8]=mispredicted [9]=snapshot [10]=ready_cycle
            [11]=perceived_distance

        Slot [2] counts the instructions a grouped entry stands for (1
        for a branch or a halt).  Slot [9] holds a mispredicted branch's
        machine snapshot, which the out-of-order backend pairs with a
        copy of its register ready table, ``(snapshot, table)``.  Slot
        [11] holds a branch's perceived distance at fetch, which commit
        counts again (-1 for any other entry).  The entries keep this
        layout between runs, and a segment snapshot pickles them as
        they are, with ``_active_fork`` still aliasing its entry.

        A speculative-history gshare or McFarling runs inlined, with
        its tables and history in locals, when no estimator is attached
        or when gshare has one estimator that
        :func:`~repro.confidence.inlined.inlined_parts` accepts (the
        gated and eager cells).  That estimator's state -- JRS table,
        distance counter, boost run -- lives in locals too, and both
        quadrant tables are tallied in local ints.  An inlined branch
        entry's two token slots hold::

            [5]=(taken, index, history) + counters   the fields of the
                Prediction predict() returns: gshare's one counter,
                McFarling's (gshare, bimodal, meta)
            [6]=int: bit 0 the assessment's high_confidence, bit 1 the
                base estimator's (the same bit unless boosted), bits 2+
                the JRS MDC index (0 for the distance estimator)

        Every other predictor, and any other mix of estimators, takes
        ``Prediction`` records and assessment lists through the
        protocol calls.  The kinds depend only on the simulator's
        predictor and estimators, so a resumed run reads the tokens its
        earlier runs left in flight.

        The loop calls no backend hook; it carries the timing model of
        each backend the class can have (:func:`_carries_ooo_timing`).
        The in-order one is the ``resolve_stage`` ready cycle above.
        The out-of-order one reads and writes the register ready table,
        claims an issue slot, checkpoints the table and restores it
        exactly as ``OutOfOrderSimulator``'s ``_dispatch``,
        ``_checkpoint`` and ``_rollback`` do (the reference engine's
        oracle), on aliases of that simulator's own table and issue
        ledger, which it changes in place.  It does nothing at retire
        and walks no squashed entry at recovery.  It times every
        instruction, so it gets one entry per instruction: a plain run
        appends and dispatches each instruction as it executes, and no
        entry is grouped.  Only the rare issue-ledger prune stays a call,
        to the same ``_prune_issue_slots`` both engines share.

        ``machine.regs`` is re-hoisted every cycle because misprediction
        recovery rebinds it, and ``machine.instructions_retired`` is
        flushed before every snapshot and zeroed after every restore so
        checkpoints stay exact.
        """
        tally = self._tally
        stats = self.stats
        machine = self.machine
        icache = self.icache
        dcache = self.dcache
        predictor = self.predictor
        estimator_items = tuple(self.estimators.items())
        # speculation control: each decision reads one assessment slot
        names = list(self.estimators)
        gate_slot = -1 if self.gate_on is None else names.index(self.gate_on)
        fork_slot = -1 if self.fork_on is None else names.index(self.fork_on)
        low_confidence = self._low_confidence_inflight
        active_fork = self._active_fork
        # 0 = the predictor protocol calls, 1/2 = gshare / McFarling
        # inlined (docstring)
        inline_kind = 0
        if type(predictor) is GsharePredictor and predictor.speculative_history:
            inline_kind = 1
        elif type(predictor) is McFarlingPredictor and predictor.speculative_history:
            inline_kind = 2
        # 0 = no estimator or the protocol calls, 1/2 = the one JRS /
        # distance estimator whose state lives in locals (docstring),
        # flushed in the finally block with its quadrant tallies
        estimator_kind = 0
        inlined = None
        if inline_kind == 1 and len(estimator_items) == 1:
            inlined = inlined_parts(estimator_items[0][1])
        if inlined is not None:
            estimator_name, estimator = estimator_items[0]
            estimator_base, boost_k, lc_run = inlined
            boosted = estimator_base is not estimator
            if type(estimator_base) is JRSEstimator:
                estimator_kind = 1
            else:
                estimator_kind = 2
                distance = estimator_base.branches_since_misprediction
            # all fetched / all committed branches
            all_c_hc = all_i_hc = all_c_lc = all_i_lc = 0
            committed_c_hc = committed_i_hc = committed_c_lc = committed_i_lc = 0
        elif estimator_items:
            # the estimators consume the full Prediction record
            inline_kind = 0
        # run-local simulator state (flushed in the finally block)
        icache_hits = icache.hits
        icache_misses = icache.misses
        dcache_hits = dcache.hits
        dcache_misses = dcache.misses
        precise = self._precise_counter
        perceived = self._perceived_counter
        committed_run = tally.committed_run
        sequence = self._sequence
        inflight_count = self._inflight_count
        last_line = self._icache_line
        congestion = self._congestion
        fetch_stalled_until = self._fetch_stalled_until
        fetch_faulted = self._fetch_faulted
        unresolved = self._unresolved_mispredictions
        program_done = self._program_done
        cycle = self._cycle
        retired = 0
        gated_cycles = self.gated_cycles
        eager_forks = self.eager_forks
        eager_covered = self.eager_covered
        eager_wasted_slots = self.eager_wasted_slots
        # run-local stat counters (absolute values, assigned back)
        fetched_instructions = stats.fetched_instructions
        committed_instructions = stats.committed_instructions
        squashed_instructions = stats.squashed_instructions
        fetched_branches = stats.fetched_branches
        fetched_mispredictions = stats.fetched_mispredictions
        committed_branches = stats.committed_branches
        committed_mispredictions = stats.committed_mispredictions
        try:
            config = self.config
            decoded = self._decoded
            kinds = decoded.kinds
            run_len = decoded.run_len
            plain_ops = decoded.plain_ops
            branch_ops = decoded.branch_ops
            imms = decoded.imm
            rs1s = decoded.rs1
            rs2s = decoded.rs2
            rds = decoded.rd
            code_length = decoded.length
            # cache internals, inlined below (hit/LRU bookkeeping is the
            # per-access cost; the counters stay run-local)
            line_shift = icache._line_shift
            icache_sets = icache._sets
            icache_set_mask = icache._set_mask
            icache_assoc = icache.config.associativity
            dcache_line_shift = dcache._line_shift
            dcache_sets = dcache._sets
            dcache_set_mask = dcache._set_mask
            dcache_assoc = dcache.config.associativity
            icache_miss_penalty = config.icache.miss_penalty
            dcache_miss_penalty = config.dcache.miss_penalty
            congestion_cap = config.congestion_cap
            fetch_width = config.fetch_width
            # a live fork's alternate path takes the other half
            diluted_width = max(1, fetch_width // 2)
            commit_width = config.commit_width
            window = config.window
            resolve_stage = config.resolve_stage
            mispredict_penalty = config.mispredict_penalty
            # the out-of-order timing model, inlined (docstring): the
            # simulator's own ready table and issue ledger, changed in place
            ooo = _carries_ooo_timing(type(self))
            if ooo:
                operands = self._operands
                reg_ready = self._reg_ready
                issue_slots = self._issue_slots
                issue_claimed = issue_slots.get
                issue_width = self.issue_width
                prune_at = 4 * window
                prune = self._prune_issue_slots
            gate_threshold = self.gate_threshold
            fork_switch_penalty = self.fork_switch_penalty
            fork_history = _forked_history(predictor) if fork_slot >= 0 else None
            memory = machine.memory
            store_word = machine.store_word
            inflight = self._inflight
            inflight_append = inflight.append
            inflight_popleft = inflight.popleft
            predictor_predict = predictor.predict
            predictor_resolve = predictor.resolve
            if inline_kind == 1:
                pr_values = predictor.table.values
                pr_index_mask = predictor.table.index_mask
                pr_midpoint = predictor.table.midpoint
                pr_max = predictor.table.max_value
                pr_history = predictor.history
                pr_hist_mask = pr_history.mask
            elif inline_kind == 2:
                mc_g_values = predictor.gshare_table.values
                mc_g_mask = predictor.gshare_table.index_mask
                mc_g_midpoint = predictor.gshare_table.midpoint
                mc_g_max = predictor.gshare_table.max_value
                mc_b_values = predictor.bimodal_table.values
                mc_p_mask = predictor.bimodal_table.index_mask
                mc_b_midpoint = predictor.bimodal_table.midpoint
                mc_b_max = predictor.bimodal_table.max_value
                mc_m_values = predictor.meta_table.values
                mc_m_midpoint = predictor.meta_table.midpoint
                mc_m_max = predictor.meta_table.max_value
                mc_history = predictor.history
                mc_hist_mask = mc_history.mask
            if estimator_kind == 1:
                jrs_values = estimator_base.table.values
                jrs_mask = estimator_base.table.index_mask
                jrs_max = estimator_base.table.max_value
                jrs_threshold = estimator_base.threshold
                # the enhanced index reads the history with the
                # prediction pushed in, the plain one the history before
                jrs_shift = 0 if estimator_base.enhanced else 1
            elif estimator_kind == 2:
                distance_threshold = estimator_base.distance_threshold
            quadrants_all = self._quadrants_all
            quadrants_committed = self._quadrants_committed
            # the tally's count lists, inlined: each *_size local is
            # its pair's length, grown with grow_counts
            precise_all = tally.precise_all
            precise_all_branches, precise_all_missed = precise_all
            precise_all_size = len(precise_all_branches)
            perceived_all = tally.perceived_all
            perceived_all_branches, perceived_all_missed = perceived_all
            perceived_all_size = len(perceived_all_branches)
            precise_committed = tally.precise_committed
            precise_committed_branches, precise_committed_missed = (
                precise_committed
            )
            precise_committed_size = len(precise_committed_branches)
            perceived_committed = tally.perceived_committed
            perceived_committed_branches, perceived_committed_missed = (
                perceived_committed
            )
            perceived_committed_size = len(perceived_committed_branches)
            limit = max_instructions
            stop = stop_instructions
            while not program_done and cycle < max_cycles:
                if limit is not None and committed_instructions >= limit:
                    break
                if stop is not None and committed_instructions >= stop:
                    break
                # ---- commit/resolve stage (mirrors _commit_stage) ----
                if inflight and inflight[0][10] <= cycle:
                    width = commit_width
                    if limit is not None:
                        remaining = limit - committed_instructions
                        if remaining < width:
                            width = remaining
                    committed = 0
                    while inflight and committed < width:
                        entry = inflight[0]
                        if entry[10] > cycle:  # ready_cycle
                            break
                        count = entry[2]
                        if count > 1:
                            take = width - committed
                            if count <= take:
                                take = count
                                inflight_popleft()
                            else:
                                entry[2] = count - take
                            inflight_count -= take
                            committed += take
                            committed_instructions += take
                            continue
                        inflight_popleft()
                        inflight_count -= 1
                        committed += 1
                        committed_instructions += 1
                        if entry[4]:  # is_halt
                            program_done = True
                            break
                        if not entry[3]:  # is_branch
                            continue
                        # inline _resolve_branch
                        committed_branches += 1
                        # inline DistanceTally.commit (misses below)
                        fetched_at = entry[11]  # perceived distance
                        if fetched_at >= perceived_committed_size:
                            perceived_committed_size = grow_counts(
                                perceived_committed, fetched_at
                            )
                        perceived_committed_branches[fetched_at] += 1
                        if committed_run >= precise_committed_size:
                            precise_committed_size = grow_counts(
                                precise_committed, committed_run
                            )
                        precise_committed_branches[committed_run] += 1
                        prediction = entry[5]
                        actual = entry[7]
                        entry_pc = entry[1]
                        forked = entry is active_fork
                        if forked:
                            active_fork = None
                            if entry[8] and fork_history is not None:
                                # the surviving path's history must
                                # outlive the single-path repair below
                                preserved = fork_history.value
                        if inline_kind == 1:
                            # inline GsharePredictor.resolve
                            index = prediction[1]
                            value = pr_values[index]
                            if actual:
                                if value < pr_max:
                                    pr_values[index] = value + 1
                            elif value > 0:
                                pr_values[index] = value - 1
                            if actual != prediction[0]:
                                # squash repair of speculative history
                                pr_history.value = (
                                    (prediction[2] << 1)
                                    | (1 if actual else 0)
                                ) & pr_hist_mask
                        elif inline_kind == 2:
                            # inline McFarlingPredictor.resolve
                            (
                                predicted,
                                g_index,
                                snapshot_hist,
                                g_counter,
                                b_counter,
                                __,
                            ) = prediction
                            g_right = (g_counter >= mc_g_midpoint) == actual
                            p_index = entry_pc & mc_p_mask
                            if g_right != ((b_counter >= mc_b_midpoint) == actual):
                                value = mc_m_values[p_index]
                                if g_right:
                                    if value < mc_m_max:
                                        mc_m_values[p_index] = value + 1
                                elif value > 0:
                                    mc_m_values[p_index] = value - 1
                            if actual:
                                value = mc_g_values[g_index]
                                if value < mc_g_max:
                                    mc_g_values[g_index] = value + 1
                                value = mc_b_values[p_index]
                                if value < mc_b_max:
                                    mc_b_values[p_index] = value + 1
                            else:
                                value = mc_g_values[g_index]
                                if value > 0:
                                    mc_g_values[g_index] = value - 1
                                value = mc_b_values[p_index]
                                if value > 0:
                                    mc_b_values[p_index] = value - 1
                            if actual != predicted:
                                mc_history.value = (
                                    (snapshot_hist << 1)
                                    | (1 if actual else 0)
                                ) & mc_hist_mask
                        else:
                            predictor_resolve(entry_pc, actual, prediction)
                        if estimator_kind:
                            # inline the estimator's resolve
                            token = entry[6]
                            missed = entry[8]
                            if estimator_kind == 1:
                                mdc = token >> 2
                                if missed:
                                    jrs_values[mdc] = 0
                                else:
                                    value = jrs_values[mdc]
                                    if value < jrs_max:
                                        jrs_values[mdc] = value + 1
                            elif missed:
                                distance = 0
                            if token & 1:  # high confidence
                                if missed:
                                    committed_i_hc += 1
                                else:
                                    committed_c_hc += 1
                            else:
                                if missed:
                                    committed_i_lc += 1
                                else:
                                    committed_c_lc += 1
                                if gate_slot >= 0:
                                    low_confidence -= 1
                        else:
                            assessments = entry[6]
                            if assessments:
                                correct = not entry[8]
                                for name, estimator, assessment in assessments:
                                    estimator.resolve(
                                        entry_pc, prediction, actual, assessment
                                    )
                                    quadrants_committed[name].record(
                                        correct, assessment.high_confidence
                                    )
                                if (
                                    gate_slot >= 0
                                    and not assessments[gate_slot][2].high_confidence
                                ):
                                    low_confidence -= 1
                        if not entry[8]:  # predicted correctly
                            committed_run += 1
                        else:
                            committed_mispredictions += 1
                            perceived = 0  # detection event
                            perceived_committed_missed[fetched_at] += 1
                            precise_committed_missed[committed_run] += 1
                            committed_run = 0
                            if forked:
                                # the fork already fetched the correct
                                # path: switch to it, no squash/refill
                                eager_covered += 1
                                if fork_history is not None:
                                    fork_history.set(preserved)
                                stall = cycle + fork_switch_penalty
                                if stall > fetch_stalled_until:
                                    fetch_stalled_until = stall
                                break
                            # inline _recover_from; pending retired are
                            # all wrong-path, the restore discards them
                            if ooo:
                                # inline OutOfOrderSimulator._rollback
                                depths = stats.extra.setdefault(
                                    DEPTH_HISTOGRAM_KEY, {}
                                )
                                depths[inflight_count] = (
                                    depths.get(inflight_count, 0) + 1
                                )
                                snapshot, checkpoint = entry[9]
                                reg_ready[:] = checkpoint
                                issue_slots.clear()
                            else:
                                snapshot = entry[9]
                            machine.restore(snapshot)
                            retired = 0
                            squashed_instructions += inflight_count
                            inflight.clear()
                            inflight_count = 0
                            low_confidence = 0
                            machine.trim_journal()
                            unresolved = 0
                            fetch_faulted = False
                            stall = cycle + 1 + mispredict_penalty
                            if stall > fetch_stalled_until:
                                fetch_stalled_until = stall
                            break  # redirect consumed the commit group
                # ---- fetch stage (mirrors _fetch_stage) ----
                fetch_limit = 0
                if not program_done:
                    if gate_slot >= 0 and low_confidence >= gate_threshold:
                        gated_cycles += 1
                    elif cycle >= fetch_stalled_until and not fetch_faulted:
                        fetch_limit = fetch_width
                        if active_fork is not None:
                            fetch_limit = diluted_width
                            eager_wasted_slots += fetch_width - diluted_width
                if (
                    fetch_limit
                    and not machine.halted
                    and inflight_count < window
                ):
                    regs = machine.regs  # recovery rebinds the list
                    pc = machine.pc
                    ready = cycle + resolve_stage
                    fetched = 0
                    group = None
                    while fetched < fetch_limit and inflight_count < window:
                        if pc < 0 or pc >= code_length:
                            if unresolved:
                                # runaway wrong-path fetch (stale jr)
                                fetch_faulted = True
                                break
                            raise MachineFault(
                                f"fetch outside program at pc={pc}"
                            )
                        line = pc >> line_shift
                        if line != last_line:
                            last_line = line
                            # inline Cache.access for the I-side
                            ways = icache_sets[line & icache_set_mask]
                            if ways is not None and line in ways:
                                icache_hits += 1
                                if ways[-1] != line:
                                    ways.remove(line)
                                    ways.append(line)
                            else:
                                icache_misses += 1
                                if ways is None:
                                    icache_sets[line & icache_set_mask] = [line]
                                else:
                                    ways.append(line)
                                    if len(ways) > icache_assoc:
                                        ways.pop(0)
                                fetch_stalled_until = (
                                    cycle + icache_miss_penalty
                                )
                                break
                        else:
                            icache_hits += 1
                        run = run_len[pc]
                        if run:
                            slots = fetch_limit - fetched
                            if run > slots:
                                run = slots
                            room = window - inflight_count
                            if run > room:
                                run = room
                            # stay on this I-cache line so the batched
                            # hit count stays exact
                            line_end = (line + 1) << line_shift
                            if pc + run > line_end:
                                run = line_end - pc
                            end = pc + run
                            icache_hits += run - 1
                            retired += run
                            fetched += run
                            inflight_count += run
                            if ooo:
                                # one entry per instruction, each renamed
                                # and issued as it executes
                                while pc < end:
                                    op = plain_ops[pc]
                                    if op is not None:
                                        op(regs)
                                    # inline OutOfOrderSimulator._dispatch
                                    sources, dest, latency = operands[pc]
                                    issue = cycle + 1
                                    for reg in sources:
                                        at = reg_ready[reg]
                                        if at > issue:
                                            issue = at
                                    claimed = issue_claimed(issue, 0)
                                    while claimed >= issue_width:
                                        issue += 1
                                        claimed = issue_claimed(issue, 0)
                                    issue_slots[issue] = claimed + 1
                                    done = issue + latency
                                    if dest >= 0:
                                        reg_ready[dest] = done
                                    if len(issue_slots) > prune_at:
                                        prune(cycle)
                                    inflight_append([
                                        sequence, pc, 1, False, False, None,
                                        None, False, False, None,
                                        done if done > ready else ready, -1,
                                    ])
                                    sequence += 1
                                    pc += 1
                                continue
                            index = pc
                            while index < end:
                                op = plain_ops[index]
                                if op is not None:
                                    op(regs)
                                index += 1
                            if group is not None:
                                group[2] += run  # count
                            else:
                                group = [
                                    sequence, pc, run, False, False, None,
                                    None, False, False, None, ready, -1,
                                ]
                                inflight_append(group)
                            sequence += run
                            pc = end
                            continue
                        kind = kinds[pc]
                        if kind == K_BRANCH:
                            taken = branch_ops[pc](regs)
                            target = imms[pc]
                            actual_next = target if taken else pc + 1
                            retired += 1
                            fetched += 1
                            inflight_count += 1
                            group = None
                            # inline _fetch_branch
                            if inline_kind == 1:
                                # inline GsharePredictor.predict
                                history_value = pr_history.value
                                g_index = (
                                    pc ^ history_value
                                ) & pr_index_mask
                                counter = pr_values[g_index]
                                predicted_taken = counter >= pr_midpoint
                                pushed = (history_value << 1) | predicted_taken
                                pr_history.value = pushed & pr_hist_mask
                                prediction = (
                                    predicted_taken, g_index,
                                    history_value, counter,
                                )
                            elif inline_kind == 2:
                                # inline McFarlingPredictor.predict
                                history_value = mc_history.value
                                g_index = (pc ^ history_value) & mc_g_mask
                                p_index = pc & mc_p_mask
                                g_counter = mc_g_values[g_index]
                                b_counter = mc_b_values[p_index]
                                m_counter = mc_m_values[p_index]
                                if m_counter >= mc_m_midpoint:
                                    predicted_taken = g_counter >= mc_g_midpoint
                                else:
                                    predicted_taken = b_counter >= mc_b_midpoint
                                mc_history.value = (
                                    (history_value << 1)
                                    | (1 if predicted_taken else 0)
                                ) & mc_hist_mask
                                prediction = (
                                    predicted_taken, g_index, history_value,
                                    g_counter, b_counter, m_counter,
                                )
                            else:
                                prediction = predictor_predict(pc)
                                predicted_taken = prediction.taken
                            mispredicted = predicted_taken != taken
                            if congestion:
                                # one miss window delays one branch
                                branch_ready = ready + congestion
                                congestion = 0
                            else:
                                branch_ready = ready
                            if estimator_kind:
                                # inline the estimator's estimate, as a
                                # boost with k = 1 when not boosted
                                if estimator_kind == 1:
                                    mdc = (pc ^ (pushed >> jrs_shift)) & jrs_mask
                                    base_high = jrs_values[mdc] >= jrs_threshold
                                else:
                                    mdc = 0
                                    base_high = distance > distance_threshold
                                    distance += 1
                                if base_high:
                                    lc_run = 0
                                    high = True
                                else:
                                    lc_run += 1
                                    high = lc_run < boost_k
                                entry_assessments = (
                                    (mdc << 2) | (base_high << 1) | high
                                )
                                if high:
                                    if mispredicted:
                                        all_i_hc += 1
                                    else:
                                        all_c_hc += 1
                                    fork = False
                                else:
                                    if mispredicted:
                                        all_i_lc += 1
                                    else:
                                        all_c_lc += 1
                                    if gate_slot >= 0:
                                        low_confidence += 1
                                    # fork only from the known-good path
                                    fork = (
                                        fork_slot >= 0
                                        and active_fork is None
                                        and not unresolved
                                    )
                            elif estimator_items:
                                entry_assessments = []
                                for name, estimator in estimator_items:
                                    assessment = estimator.estimate(
                                        pc, prediction
                                    )
                                    entry_assessments.append(
                                        (name, estimator, assessment)
                                    )
                                    quadrants_all[name].record(
                                        not mispredicted,
                                        assessment.high_confidence,
                                    )
                                if (
                                    gate_slot >= 0
                                    and not entry_assessments[gate_slot][2].high_confidence
                                ):
                                    low_confidence += 1
                                # fork only from the known-good path
                                fork = (
                                    fork_slot >= 0
                                    and active_fork is None
                                    and not unresolved
                                    and not entry_assessments[fork_slot][2].high_confidence
                                )
                            else:
                                entry_assessments = None
                                fork = False
                            if ooo:
                                # inline OutOfOrderSimulator._dispatch (a
                                # branch writes no register)
                                sources, __, latency = operands[pc]
                                issue = cycle + 1
                                for reg in sources:
                                    at = reg_ready[reg]
                                    if at > issue:
                                        issue = at
                                claimed = issue_claimed(issue, 0)
                                while claimed >= issue_width:
                                    issue += 1
                                    claimed = issue_claimed(issue, 0)
                                issue_slots[issue] = claimed + 1
                                done = issue + latency
                                if len(issue_slots) > prune_at:
                                    prune(cycle)
                                if done > branch_ready:
                                    branch_ready = done
                            entry = [
                                sequence, pc, 1, True, False, prediction,
                                entry_assessments, taken, mispredicted,
                                None, branch_ready, perceived,
                            ]
                            inflight_append(entry)
                            # inline DistanceTally.fetch (misses below)
                            if precise >= precise_all_size:
                                precise_all_size = grow_counts(
                                    precise_all, precise
                                )
                            precise_all_branches[precise] += 1
                            if perceived >= perceived_all_size:
                                perceived_all_size = grow_counts(
                                    perceived_all, perceived
                                )
                            perceived_all_branches[perceived] += 1
                            sequence += 1
                            fetched_branches += 1
                            perceived += 1
                            if fork:
                                active_fork = entry
                                eager_forks += 1
                            if mispredicted:
                                fetched_mispredictions += 1
                                precise_all_missed[precise] += 1
                                # entry[11]: perceived before the += 1
                                perceived_all_missed[entry[11]] += 1
                                precise = 0
                                if fork:
                                    # fetch stays on the correct path;
                                    # the surviving context's history
                                    # carries the actual direction bit
                                    if fork_history is not None:
                                        fork_history.set(
                                            fork_history.value ^ 1
                                        )
                                    pc = actual_next
                                    break
                                # the snapshot sees the actual-path
                                # state, then fetch redirects down the
                                # predicted (wrong) path
                                unresolved += 1
                                machine.instructions_retired += retired
                                retired = 0
                                machine.pc = actual_next
                                if ooo:
                                    # inline OutOfOrderSimulator._checkpoint
                                    entry[9] = (machine.snapshot(), reg_ready[:])
                                else:
                                    entry[9] = machine.snapshot()
                                pc = target if predicted_taken else pc + 1
                                break
                            precise += 1
                            pc = actual_next
                            continue
                        if kind == K_LOAD:
                            address = (regs[rs1s[pc]] + imms[pc]) & WORD_MASK
                            # inline Cache.access for the D-side
                            dline = address >> dcache_line_shift
                            ways = dcache_sets[dline & dcache_set_mask]
                            if ways is not None and dline in ways:
                                dcache_hits += 1
                                if ways[-1] != dline:
                                    ways.remove(dline)
                                    ways.append(dline)
                            else:
                                dcache_misses += 1
                                if ways is None:
                                    dcache_sets[dline & dcache_set_mask] = [dline]
                                else:
                                    ways.append(dline)
                                    if len(ways) > dcache_assoc:
                                        ways.pop(0)
                                congestion = min(
                                    congestion_cap,
                                    congestion + dcache_miss_penalty,
                                )
                            rd = rds[pc]
                            if rd:
                                regs[rd] = memory.get(address, 0)
                            next_pc = pc + 1
                        elif kind == K_STORE:
                            address = (regs[rs1s[pc]] + imms[pc]) & WORD_MASK
                            dline = address >> dcache_line_shift
                            ways = dcache_sets[dline & dcache_set_mask]
                            if ways is not None and dline in ways:
                                dcache_hits += 1
                                if ways[-1] != dline:
                                    ways.remove(dline)
                                    ways.append(dline)
                            else:
                                dcache_misses += 1
                                if ways is None:
                                    dcache_sets[dline & dcache_set_mask] = [dline]
                                else:
                                    ways.append(dline)
                                    if len(ways) > dcache_assoc:
                                        ways.pop(0)
                                congestion = min(
                                    congestion_cap,
                                    congestion + dcache_miss_penalty,
                                )
                            store_word(address, regs[rs2s[pc]])
                            next_pc = pc + 1
                        elif kind == K_JUMP:
                            next_pc = imms[pc]
                        elif kind == K_JAL:
                            regs[31] = pc + 1
                            next_pc = imms[pc]
                        elif kind == K_JR:
                            next_pc = regs[rs1s[pc]]
                        else:  # K_HALT: its own entry ends the fetch group
                            machine.halted = True
                            next_pc = pc + 1
                            group = None
                        retired += 1
                        fetched += 1
                        inflight_count += 1
                        if ooo:
                            # inline OutOfOrderSimulator._dispatch
                            sources, dest, latency = operands[pc]
                            issue = cycle + 1
                            for reg in sources:
                                at = reg_ready[reg]
                                if at > issue:
                                    issue = at
                            claimed = issue_claimed(issue, 0)
                            while claimed >= issue_width:
                                issue += 1
                                claimed = issue_claimed(issue, 0)
                            issue_slots[issue] = claimed + 1
                            done = issue + latency
                            if dest >= 0:
                                reg_ready[dest] = done
                            if len(issue_slots) > prune_at:
                                prune(cycle)
                            inflight_append([
                                sequence, pc, 1, False, kind == K_HALT, None,
                                None, False, False, None,
                                done if done > ready else ready, -1,
                            ])
                        elif group is not None:
                            group[2] += 1  # count
                        else:
                            group = [
                                sequence, pc, 1, False, kind == K_HALT, None,
                                None, False, False, None, ready, -1,
                            ]
                            inflight_append(group)
                        sequence += 1
                        pc = next_pc
                        if kind == K_HALT:
                            break
                    machine.pc = pc
                    fetched_instructions += fetched
                cycle += 1
                if congestion:
                    congestion -= 1
        finally:
            self._cycle = cycle
            self._precise_counter = precise
            self._perceived_counter = perceived
            tally.committed_run = committed_run
            self._sequence = sequence
            self._inflight_count = inflight_count
            self._icache_line = last_line
            self._congestion = congestion
            self._fetch_stalled_until = fetch_stalled_until
            self._fetch_faulted = fetch_faulted
            self._unresolved_mispredictions = unresolved
            self._program_done = program_done
            machine.instructions_retired += retired
            icache.hits = icache_hits
            icache.misses = icache_misses
            dcache.hits = dcache_hits
            dcache.misses = dcache_misses
            stats.fetched_instructions = fetched_instructions
            stats.committed_instructions = committed_instructions
            stats.squashed_instructions = squashed_instructions
            stats.fetched_branches = fetched_branches
            stats.fetched_mispredictions = fetched_mispredictions
            stats.committed_branches = committed_branches
            stats.committed_mispredictions = committed_mispredictions
            if gate_slot >= 0:
                self.gated_cycles = gated_cycles
                self._low_confidence_inflight = low_confidence
            if estimator_kind:
                for counts, c_hc, i_hc, c_lc, i_lc in (
                    (
                        self._quadrants_all[estimator_name],
                        all_c_hc, all_i_hc, all_c_lc, all_i_lc,
                    ),
                    (
                        self._quadrants_committed[estimator_name],
                        committed_c_hc, committed_i_hc,
                        committed_c_lc, committed_i_lc,
                    ),
                ):
                    counts.c_hc += c_hc
                    counts.i_hc += i_hc
                    counts.c_lc += c_lc
                    counts.i_lc += i_lc
                if estimator_kind == 2:
                    estimator_base.branches_since_misprediction = distance
                if boosted:
                    estimator._lc_run = lc_run
            if fork_slot >= 0:
                self._active_fork = active_fork
                self.eager_forks = eager_forks
                self.eager_covered = eager_covered
                self.eager_wasted_slots = eager_wasted_slots
        return self.result()

    def result(self) -> PipelineResult:
        """Snapshot the run's results (also usable mid-simulation)."""
        self.stats.cycles = self._cycle
        self.stats.icache_misses = self.icache.misses
        self.stats.dcache_misses = self.dcache.misses
        return PipelineResult(
            stats=self.stats,
            distances=self._tally.counts(),
            quadrants_committed=self._quadrants_committed,
            quadrants_all=self._quadrants_all,
        )

    # ------------------------------------------------------------------
    # reference engine: commit/resolve stage
    # ------------------------------------------------------------------

    def _commit_stage(self) -> None:
        inflight = self._inflight
        if not inflight:
            return
        cycle = self._cycle
        stats = self.stats
        width = self.config.commit_width
        limit = self._max_instructions
        if limit is not None:
            # commit exactly up to the instruction budget, never past it
            remaining = limit - stats.committed_instructions
            if remaining < width:
                width = remaining
        committed = 0
        while inflight and committed < width:
            entry = inflight[0]
            if entry.ready_cycle > cycle:
                break
            inflight.popleft()
            self._inflight_count -= 1
            committed += 1
            stats.committed_instructions += 1
            if entry.is_halt:
                self._program_done = True
                return
            if not entry.is_branch:
                continue
            self._resolve_branch(entry)
            if entry.mispredicted:
                return  # redirect consumed the rest of this commit group

    def _resolve_branch(self, entry: _Inflight) -> None:
        forked = entry is self._active_fork
        history = None
        if forked:
            self._active_fork = None
            if entry.mispredicted:
                # the surviving path's history was set at fork time and
                # the younger branches in flight are that path: the
                # predictor's single-path repair must not rewind it
                history = _forked_history(self.predictor)
                if history is not None:
                    preserved = history.value
        self.stats.committed_branches += 1
        self._tally.commit(entry.perceived_distance, entry.mispredicted)
        self.records.resolve(entry.record_index, self._cycle)
        correct = not entry.mispredicted
        self.predictor.resolve(entry.pc, entry.actual_taken, entry.prediction)
        for name, estimator, assessment in entry.assessments:
            estimator.resolve(
                entry.pc, entry.prediction, entry.actual_taken, assessment
            )
            self._quadrants_committed[name].record(
                correct, assessment.high_confidence
            )
        if entry.mispredicted:
            self.stats.committed_mispredictions += 1
            self._perceived_counter = 0  # detection event
            if forked:
                # the fork already fetched the correct path: switch to
                # it for the cost of a switch, not a flush
                self.eager_covered += 1
                self._fetch_stalled_until = max(
                    self._fetch_stalled_until,
                    self._cycle + self.fork_switch_penalty,
                )
            else:
                self._recover_from(entry)
        if history is not None:
            history.set(preserved)

    def _recover_from(self, entry: _Inflight) -> None:
        """Squash younger work and restart fetch on the correct path."""
        self._rollback(self._inflight_count, entry.checkpoint)
        self.machine.restore(entry.snapshot)
        self.stats.squashed_instructions += self._inflight_count
        self._inflight.clear()
        self._inflight_count = 0
        self.machine.trim_journal()  # no snapshots remain live
        self._unresolved_mispredictions = 0
        self._fetch_faulted = False
        self._fetch_stalled_until = max(
            self._fetch_stalled_until,
            self._cycle + 1 + self.config.mispredict_penalty,
        )

    # ------------------------------------------------------------------
    # reference engine: fetch/decode/execute stage
    # ------------------------------------------------------------------

    def _fetch_stage(self) -> None:
        if (
            self.gate_on is not None
            and _count_low_confidence_inflight(self, self.gate_on)
            >= self.gate_threshold
        ):
            self.gated_cycles += 1
            return
        config = self.config
        if self._cycle < self._fetch_stalled_until or self._fetch_faulted:
            return
        fetch_width = config.fetch_width
        if self._active_fork is not None:
            # the alternate path consumes the other half of the port
            diluted = max(1, fetch_width // 2)
            self.eager_wasted_slots += fetch_width - diluted
            fetch_width = diluted
        machine = self.machine
        instructions = self.program.instructions
        code_length = len(instructions)
        fetched = 0
        while (
            fetched < fetch_width
            and self._inflight_count < config.window
            and not machine.halted
        ):
            pc = machine.pc
            if pc < 0 or pc >= code_length:
                # runaway fetch (stale jr target on a wrong path)
                if self._unresolved_mispredictions:
                    self._fetch_faulted = True
                    return
                raise MachineFault(f"fetch outside program at pc={pc}")
            if not self.icache.access(pc):
                self._fetch_stalled_until = (
                    self._cycle + config.icache.miss_penalty
                )
                return
            inst = instructions[pc]
            category = inst.opcode.category
            if category is OpCategory.LOAD or category is OpCategory.STORE:
                address = (machine.regs[inst.rs1] + inst.imm) & WORD_MASK
                if not self.dcache.access(address):
                    self._congestion = min(
                        config.congestion_cap,
                        self._congestion + config.dcache.miss_penalty,
                    )
            result = machine.step()
            fetched += 1
            self.stats.fetched_instructions += 1
            entry = _Inflight(
                self._sequence, pc, self._cycle + config.resolve_stage
            )
            self._sequence += 1
            self._inflight.append(entry)
            self._inflight_count += 1
            if result.taken is not None:
                self._fetch_branch(entry, result.taken, inst.imm)
            elif result.halted:
                entry.is_halt = True
            entry.ready_cycle = self._dispatch(pc, entry.ready_cycle, self._cycle)
            if entry.mispredicted or entry.is_halt:
                break  # fetch group ends at a front-end redirect or halt

    def _fetch_branch(self, entry: _Inflight, taken: bool, target: int) -> None:
        """Predict, assess, count and record one fetched conditional
        branch, then steer fetch: fork both paths, follow the predicted
        (wrong) path, or carry on.

        ``taken`` is the evaluated direction in the context the branch
        executed in; ``target`` its taken-target PC.
        """
        pc = entry.pc
        prediction = self.predictor.predict(pc)
        entry.is_branch = True
        entry.prediction = prediction
        entry.actual_taken = taken
        mispredicted = prediction.taken != taken
        entry.mispredicted = mispredicted
        congestion = self._congestion
        if congestion:
            # one outstanding-miss window delays one branch resolution;
            # the charge is consumed, not re-billed to the whole group
            entry.ready_cycle += congestion
            self._congestion = 0
        wrong_path = self._unresolved_mispredictions > 0
        assessment_flags = None
        if self.estimators:
            assessment_flags = {}
            quadrants_all = self._quadrants_all
            for name, estimator in self.estimators.items():
                assessment = estimator.estimate(pc, prediction)
                entry.assessments.append((name, estimator, assessment))
                quadrants_all[name].record(
                    not mispredicted, assessment.high_confidence
                )
                assessment_flags[name] = assessment.high_confidence
        entry.perceived_distance = self._perceived_counter
        self._tally.fetch(
            self._precise_counter, self._perceived_counter, mispredicted
        )
        entry.record_index = self.records.append(
            sequence=entry.sequence,
            pc=pc,
            predicted_taken=prediction.taken,
            actual_taken=taken,
            fetch_cycle=self._cycle,
            precise_distance=self._precise_counter,
            perceived_distance=self._perceived_counter,
            wrong_path=wrong_path,
            assessments=assessment_flags,
        )
        self.stats.fetched_branches += 1
        self._perceived_counter += 1
        # fork only from the known-good path, one fork at a time
        fork = (
            self.fork_on is not None
            and self._active_fork is None
            and not wrong_path
            and not assessment_flags[self.fork_on]
        )
        if fork:
            self._active_fork = entry
            self.eager_forks += 1
        if not mispredicted:
            self._precise_counter += 1
            return
        self.stats.fetched_mispredictions += 1
        self._precise_counter = 0
        if fork:
            # the alternate context fetches the *correct* path, which
            # the journaled machine already follows -- no redirect and
            # no snapshot; the predicted (wrong) path is the diluted
            # half of the port.  Hardware forks the history register
            # per path: the surviving context carries the complement
            # direction bit, so flip it for the stream simulated here
            history = _forked_history(self.predictor)
            if history is not None:
                history.set(history.value ^ 1)
            return
        self._unresolved_mispredictions += 1
        # state right after the branch went its *actual* way: the
        # recovery point if/when this branch resolves
        entry.snapshot = self.machine.snapshot()
        entry.checkpoint = self._checkpoint()
        # redirect the front end down the predicted (wrong) path
        self.machine.pc = target if prediction.taken else pc + 1

    # ------------------------------------------------------------------
    # backend hooks (the reference engine's; the in-order ones are
    # no-ops, and the fused engine carries both backends' models inline)
    # ------------------------------------------------------------------

    def _dispatch(self, pc: int, ready_cycle: int, cycle: int) -> int:
        """Backend hook: the instruction at ``pc`` entered the window at
        fetch ``cycle``, after branch prediction and recording; return
        its ready (commit) cycle, never below the front end's
        ``ready_cycle``.  An override should read only its arguments and
        its own state.  The in-order backend keeps ``ready_cycle``,
        which lets the fused engine group entries."""
        return ready_cycle

    def _checkpoint(self) -> object:
        """Backend hook: the timing state a mispredicted branch keeps
        next to its machine snapshot, taken at its fetch (before its
        ``_dispatch``) and handed back to ``_rollback``.  The in-order
        backend keeps none."""
        return None

    def _rollback(self, depth: int, checkpoint: object) -> None:
        """Backend hook: a resolving misprediction squashes the
        ``depth`` instructions in flight; ``checkpoint`` is what
        ``_checkpoint`` returned at the branch's fetch.  Called before
        the machine snapshot is restored."""
