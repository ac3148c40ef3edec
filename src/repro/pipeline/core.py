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

The simulator records a :class:`~repro.pipeline.records.BranchRecord`
for every fetched conditional branch, carrying both the *precise*
misprediction distance (reset when a mispredicted branch is fetched;
the oracle view of Figures 6/7) and the *perceived* distance (reset
when a misprediction is detected at resolution; the implementable view
of Figures 8/9), plus the confidence estimates made at fetch time.

Two fetch engines share these semantics bit for bit, for every backend:

* the **reference path** steps :meth:`Machine.step` once per fetched
  instruction (``REPRO_PIPELINE_FAST=0``) -- the test oracle,
* the **fast path** (default) drives a
  :class:`~repro.pipeline.decode.DecodedProgram`: straight-line plain
  runs execute as pre-specialised closures in one tight inner loop,
  consecutive same-line I-cache accesses are batched (an access to the
  most-recently-touched line is a guaranteed hit that cannot disturb
  LRU order, so the hit counter is bumped arithmetically), and
  non-branch instructions fetched in the same cycle share one grouped
  in-flight entry that the commit stage drains by count.  A backend
  that overrides ``_dispatch`` (the out-of-order one) times every
  instruction itself, so for it the fast path emits one entry per
  instruction and dispatches each where the reference path does.

Both paths funnel every branch through the same ``_fetch_branch`` /
``_resolve_branch`` hooks, so predictor, estimator, record and cache
state evolve identically -- the byte-identity tests and the CI golden
report legs compare the two engines end to end.

The front end above (fetch, branch prediction, confidence tagging, the
gating/eager hooks, the decoded fast path) is shared by every pipeline
*backend*; the execution model behind it is pluggable through the
backend hook surface (``_dispatch``, ``_retire_entry``,
``_recover_from`` and friends -- the :class:`PipelineBackend` protocol
in :mod:`repro.pipeline.backends`).  This class is itself the
``inorder`` backend; :class:`repro.pipeline.ooo.OutOfOrderSimulator`
swaps an R10K-style out-of-order window in behind the same front end.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ..confidence.base import ConfidenceEstimator
from ..isa import Machine, MachineFault, Program
from ..isa.instructions import WORD_MASK, OpCategory
from ..metrics.quadrant import QuadrantCounts
from ..predictors.base import BranchPredictor, Prediction
from ..predictors.gshare import GsharePredictor
from ..predictors.mcfarling import McFarlingPredictor
from .caches import Cache
from .config import PipelineConfig
from .decode import (
    K_BRANCH,
    K_JAL,
    K_JR,
    K_JUMP,
    K_LOAD,
    K_STORE,
    DecodedProgram,
    decode_program,
    pipeline_fast_enabled,
)
from .records import BranchRecord, BranchRecordStore, PipelineStats


class _Inflight:
    """One in-flight unit: a single instruction, or -- on the fast
    path -- a *group* of ``count`` non-branch instructions fetched in
    the same cycle (they share one ready cycle, so commit can drain
    them arithmetically)."""

    __slots__ = (
        "sequence",
        "pc",
        "count",
        "is_branch",
        "is_halt",
        "prediction",
        "assessments",
        "actual_taken",
        "mispredicted",
        "snapshot",
        "ready_cycle",
        "record_index",
    )

    def __init__(self, sequence: int, pc: int, ready_cycle: int):
        self.sequence = sequence
        self.pc = pc
        self.count = 1
        self.is_branch = False
        self.is_halt = False
        self.prediction = None
        self.assessments: List[Tuple[str, ConfidenceEstimator, object]] = []
        self.actual_taken = False
        self.mispredicted = False
        self.snapshot = None
        self.ready_cycle = ready_cycle
        self.record_index = -1


class PipelineResult:
    """Everything a pipeline run produced."""

    def __init__(
        self,
        stats: PipelineStats,
        records: BranchRecordStore,
        quadrants_committed: Dict[str, QuadrantCounts],
        quadrants_all: Dict[str, QuadrantCounts],
    ):
        self.stats = stats
        #: Columnar buffers of every fetched branch (the pickled form).
        self.records = records
        #: Estimator quadrants over committed branches only (resolved).
        self.quadrants_committed = quadrants_committed
        #: Estimator quadrants over every fetched branch.
        self.quadrants_all = quadrants_all

    @property
    def branch_records(self) -> List[BranchRecord]:
        """Record views, materialised from the columnar store on demand."""
        return self.records.materialize()

    def committed_records(self) -> List[BranchRecord]:
        return [record for record in self.branch_records if record.committed]


class PipelineSimulator:
    """Speculative 5-stage pipeline over a program + predictor.

    Optional confidence ``estimators`` are consulted at fetch for every
    branch (wrong-path included, as in hardware) and resolved in order
    for committed branches only.

    ``fast`` selects the fetch engine: ``None`` (default) follows the
    ``REPRO_PIPELINE_FAST`` environment gate, ``True``/``False`` force
    the pre-decoded fast path / the reference per-instruction loop.
    ``decoded`` may supply a shared :class:`DecodedProgram` (e.g. the
    per-workload :func:`~repro.pipeline.decode.decoded_run` memo) to
    skip the decode; the reference loop ignores it.
    """

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
        self.records = BranchRecordStore()
        if fast is None:
            fast = pipeline_fast_enabled()
        if fast:
            self._decoded = decoded if decoded is not None else decode_program(
                program
            )
        else:
            self._decoded = None
        #: The backend times each instruction in ``_dispatch``, so the
        #: fast fetch emits one in-flight entry per instruction.
        self._dispatches = (
            type(self)._dispatch is not PipelineSimulator._dispatch
        )
        self._inflight: Deque[_Inflight] = deque()
        #: Instructions currently in flight (grouped entries count for
        #: ``entry.count``); the window check everywhere.
        self._inflight_count = 0
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
        #: I-cache line of the most recent fetch access (fast path): a
        #: repeat access is a guaranteed hit with LRU order unchanged.
        self._icache_line = -1
        self._program_done = False  # halt committed
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
        """Record views of every fetched branch so far."""
        return self.records.materialize()

    def wants_fetch(self) -> bool:
        """Would this pipeline fetch if offered the slot this cycle?

        Fetch arbiters (the SMT front end) use this to skip stalled or
        finished threads without burning the shared slot.
        """
        return (
            not self._program_done
            and not self._fetch_faulted
            and self._cycle >= self._fetch_stalled_until
            and not self.machine.halted
            and self._inflight_count < self.config.window
        )

    def step_cycle(self, fetch_allowed: bool = True) -> None:
        """Advance one cycle: commit/resolve, then (optionally) fetch.

        ``fetch_allowed=False`` models losing the fetch slot to another
        thread or a gating decision; the back end still progresses.
        """
        self._commit_stage()
        if not self._program_done and fetch_allowed:
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
        if self._decoded is not None and type(self) is PipelineSimulator:
            # no subclass hooks to honour: run the fused fast loop
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
        """Fused cycle loop over the pre-decoded program.

        Cycle-for-cycle identical to ``step_cycle`` +
        ``_fetch_stage_fast``, but commit and fetch are inlined in one
        loop so per-cycle hook dispatch and local re-hoisting (the
        dominant cost at ~3 fetched instructions per cycle) happen once
        per *run* instead of once per cycle, and the per-branch
        ``_fetch_branch`` / ``_resolve_branch`` / ``_recover_from``
        bodies are inlined with the record-store column appends hoisted
        to bound methods (the workloads average one branch per ~5
        instructions, so per-branch call frames are the next cost after
        per-cycle ones).  Every piece of simulator state this loop
        touches -- stat counters, congestion, stall deadlines, the
        misprediction-distance counters -- lives in locals and is
        written back in the ``finally`` block; that is only sound
        because *every* mutator of that state is inlined here, which is
        why this loop is engaged only for the exact base class
        (subclasses override the stage hooks and take the per-cycle
        path).

        Inside this loop, in-flight entries are plain lists (a Python
        class instantiation costs ~4x a list literal and entries are
        the hottest allocation), laid out exactly like the
        ``_Inflight`` slots::

            [0]=sequence  [1]=pc         [2]=count       [3]=is_branch
            [4]=is_halt   [5]=prediction [6]=assessments [7]=actual_taken
            [8]=mispredicted [9]=snapshot [10]=ready_cycle [11]=record_index

        Any entries still in flight when the loop exits (an early
        ``max_instructions``/``max_cycles`` stop) are converted back to
        ``_Inflight`` objects in the ``finally`` block, so external
        inspection and a later ``step_cycle()`` see the normal
        representation.  ``machine.regs`` is re-hoisted every cycle
        because misprediction recovery rebinds it, and
        ``machine.instructions_retired`` is flushed before every
        snapshot and zeroed after every restore so checkpoints stay
        exact.
        """
        self._max_instructions = max_instructions
        # a resumed run (earlier soft stop, or an unpickled snapshot)
        # holds _Inflight objects; convert them back to the list layout
        # this loop indexes by slot (inverse of the finally block below)
        queue = self._inflight
        for position, entry in enumerate(queue):
            if type(entry) is not _Inflight:
                continue
            queue[position] = [
                entry.sequence,
                entry.pc,
                entry.count,
                entry.is_branch,
                entry.is_halt,
                entry.prediction,
                entry.assessments or None,
                entry.actual_taken,
                entry.mispredicted,
                entry.snapshot,
                entry.ready_cycle,
                entry.record_index,
            ]
        records = self.records
        stats = self.stats
        machine = self.machine
        icache = self.icache
        dcache = self.dcache
        # run-local simulator state (flushed in the finally block)
        icache_hits = icache.hits
        icache_misses = icache.misses
        dcache_hits = dcache.hits
        dcache_misses = dcache.misses
        precise = self._precise_counter
        perceived = self._perceived_counter
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
            commit_width = config.commit_width
            window = config.window
            resolve_stage = config.resolve_stage
            mispredict_penalty = config.mispredict_penalty
            memory = machine.memory
            store_word = machine.store_word
            inflight = self._inflight
            inflight_append = inflight.append
            inflight_popleft = inflight.popleft
            estimator_items = tuple(self.estimators.items())
            predictor = self.predictor
            predictor_predict = predictor.predict
            # 0 = call through the predictor protocol, 1/2 = the two
            # paper predictors inlined below (token layouts match their
            # predict_compact/resolve_compact exactly, so entries left
            # in flight on an early stop still resolve correctly)
            inline_kind = 0
            if estimator_items:
                # estimators consume the full Prediction record
                predictor_resolve = self.predictor.resolve
            else:
                predictor_predict_compact = predictor.predict_compact
                predictor_resolve = predictor.resolve_compact
                if (
                    type(predictor) is GsharePredictor
                    and predictor.speculative_history
                ):
                    inline_kind = 1
                    pr_values = predictor.table.values
                    pr_index_mask = predictor.table.index_mask
                    pr_midpoint = predictor.table.midpoint
                    pr_max = predictor.table.max_value
                    pr_history = predictor.history
                    pr_hist_mask = pr_history.mask
                elif (
                    type(predictor) is McFarlingPredictor
                    and predictor.speculative_history
                ):
                    inline_kind = 2
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
            quadrants_all = self._quadrants_all
            quadrants_committed = self._quadrants_committed
            rec_sequence_append = records.sequence.append
            rec_pc_append = records.pc.append
            rec_predicted_append = records.predicted_taken.append
            rec_actual_append = records.actual_taken.append
            rec_fetch_cycle_append = records.fetch_cycle.append
            rec_resolve_cycle = records.resolve_cycle
            rec_resolve_cycle_append = rec_resolve_cycle.append
            rec_committed = records.committed
            rec_committed_append = rec_committed.append
            rec_precise_append = records.precise_distance.append
            rec_perceived_append = records.perceived_distance.append
            rec_wrong_path_append = records.wrong_path.append
            rec_assessments_append = records.assessments.append
            record_count = len(records.sequence)
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
                        index = entry[11]  # record_index
                        rec_committed[index] = True
                        rec_resolve_cycle[index] = cycle
                        prediction = entry[5]
                        actual = entry[7]
                        entry_pc = entry[1]
                        if inline_kind == 1:
                            # inline GsharePredictor.resolve_compact
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
                            # inline McFarlingPredictor.resolve_compact
                            (
                                predicted,
                                g_index,
                                g_taken,
                                b_taken,
                                snapshot_hist,
                            ) = prediction
                            g_right = g_taken == actual
                            p_index = entry_pc & mc_p_mask
                            if g_right != (b_taken == actual):
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
                        if entry[8]:  # mispredicted
                            committed_mispredictions += 1
                            perceived = 0  # detection event
                            # inline _recover_from; pending retired are
                            # all wrong-path, the restore discards them
                            machine.restore(entry[9])
                            retired = 0
                            squashed_instructions += inflight_count
                            for younger in inflight:
                                squashed_index = younger[11]
                                if squashed_index >= 0:
                                    rec_committed[squashed_index] = False
                            inflight.clear()
                            inflight_count = 0
                            machine.trim_journal()
                            unresolved = 0
                            fetch_faulted = False
                            stall = cycle + 1 + mispredict_penalty
                            if stall > fetch_stalled_until:
                                fetch_stalled_until = stall
                            break  # redirect consumed the commit group
                # ---- fetch stage (mirrors _fetch_stage_fast) ----
                if (
                    not program_done
                    and cycle >= fetch_stalled_until
                    and not fetch_faulted
                    and not machine.halted
                    and inflight_count < window
                ):
                    regs = machine.regs  # recovery rebinds the list
                    pc = machine.pc
                    ready = cycle + resolve_stage
                    fetched = 0
                    group = None
                    while fetched < fetch_width and inflight_count < window:
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
                            if line in ways:
                                icache_hits += 1
                                if ways[-1] != line:
                                    ways.remove(line)
                                    ways.append(line)
                            else:
                                icache_misses += 1
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
                            slots = fetch_width - fetched
                            if run > slots:
                                run = slots
                            room = window - inflight_count
                            if run > room:
                                run = room
                            line_end = (line + 1) << line_shift
                            if pc + run > line_end:
                                run = line_end - pc
                            end = pc + run
                            index = pc
                            while index < end:
                                op = plain_ops[index]
                                if op is not None:
                                    op(regs)
                                index += 1
                            icache_hits += run - 1
                            retired += run
                            fetched += run
                            inflight_count += run
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
                                # inline GsharePredictor.predict_compact
                                history_value = pr_history.value
                                g_index = (
                                    pc ^ history_value
                                ) & pr_index_mask
                                predicted_taken = (
                                    pr_values[g_index] >= pr_midpoint
                                )
                                pr_history.value = (
                                    (history_value << 1)
                                    | (1 if predicted_taken else 0)
                                ) & pr_hist_mask
                                prediction = (
                                    predicted_taken, g_index, history_value,
                                )
                            elif inline_kind == 2:
                                # inline McFarlingPredictor.predict_compact
                                history_value = mc_history.value
                                g_index = (pc ^ history_value) & mc_g_mask
                                p_index = pc & mc_p_mask
                                g_taken = (
                                    mc_g_values[g_index] >= mc_g_midpoint
                                )
                                b_taken = (
                                    mc_b_values[p_index] >= mc_b_midpoint
                                )
                                if mc_m_values[p_index] >= mc_m_midpoint:
                                    predicted_taken = g_taken
                                else:
                                    predicted_taken = b_taken
                                mc_history.value = (
                                    (history_value << 1)
                                    | (1 if predicted_taken else 0)
                                ) & mc_hist_mask
                                prediction = (
                                    predicted_taken,
                                    g_index,
                                    g_taken,
                                    b_taken,
                                    history_value,
                                )
                            elif estimator_items:
                                prediction = predictor_predict(pc)
                                predicted_taken = prediction.taken
                            else:
                                predicted_taken, prediction = (
                                    predictor_predict_compact(pc)
                                )
                            mispredicted = predicted_taken != taken
                            if congestion:
                                # one miss window delays one branch
                                branch_ready = ready + congestion
                                congestion = 0
                            else:
                                branch_ready = ready
                            if estimator_items:
                                assessment_flags = {}
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
                                    assessment_flags[name] = (
                                        assessment.high_confidence
                                    )
                            else:
                                assessment_flags = None
                                entry_assessments = None
                            entry = [
                                sequence, pc, 1, True, False, prediction,
                                entry_assessments, taken, mispredicted,
                                None, branch_ready, record_count,
                            ]
                            inflight_append(entry)
                            record_count += 1
                            rec_sequence_append(sequence)
                            rec_pc_append(pc)
                            rec_predicted_append(predicted_taken)
                            rec_actual_append(taken)
                            rec_fetch_cycle_append(cycle)
                            rec_resolve_cycle_append(None)
                            rec_committed_append(False)
                            rec_precise_append(precise)
                            rec_perceived_append(perceived)
                            rec_wrong_path_append(unresolved > 0)
                            rec_assessments_append(assessment_flags)
                            sequence += 1
                            fetched_branches += 1
                            perceived += 1
                            if mispredicted:
                                fetched_mispredictions += 1
                                precise = 0
                                # inline _front_end_mispredict: the
                                # snapshot sees the actual-path state,
                                # then fetch redirects down the
                                # predicted (wrong) path
                                unresolved += 1
                                machine.instructions_retired += retired
                                retired = 0
                                machine.pc = actual_next
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
                            if dline in ways:
                                dcache_hits += 1
                                if ways[-1] != dline:
                                    ways.remove(dline)
                                    ways.append(dline)
                            else:
                                dcache_misses += 1
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
                            if dline in ways:
                                dcache_hits += 1
                                if ways[-1] != dline:
                                    ways.remove(dline)
                                    ways.append(dline)
                            else:
                                dcache_misses += 1
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
                        else:  # K_HALT
                            machine.halted = True
                            pc = pc + 1
                            retired += 1
                            fetched += 1
                            inflight_count += 1
                            inflight_append([
                                sequence, pc - 1, 1, False, True, None,
                                None, False, False, None, ready, -1,
                            ])
                            sequence += 1
                            group = None
                            break
                        retired += 1
                        fetched += 1
                        inflight_count += 1
                        if group is not None:
                            group[2] += 1  # count
                        else:
                            group = [
                                sequence, pc, 1, False, False, None,
                                None, False, False, None, ready, -1,
                            ]
                            inflight_append(group)
                        sequence += 1
                        pc = next_pc
                    machine.pc = pc
                    fetched_instructions += fetched
                cycle += 1
                if congestion:
                    congestion -= 1
        finally:
            self._max_instructions = None
            self._cycle = cycle
            self._precise_counter = precise
            self._perceived_counter = perceived
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
            records._stamp += 1  # invalidate the materialize memo
            # convert surviving list entries back to _Inflight objects
            # so external inspection / a later step_cycle() see the
            # normal representation
            queue = self._inflight
            for position, entry in enumerate(queue):
                if type(entry) is not list:
                    continue
                survivor = _Inflight(entry[0], entry[1], entry[10])
                survivor.count = entry[2]
                survivor.is_branch = entry[3]
                survivor.is_halt = entry[4]
                survivor.prediction = entry[5]
                if entry[6] is not None:
                    survivor.assessments = entry[6]
                survivor.actual_taken = entry[7]
                survivor.mispredicted = entry[8]
                survivor.snapshot = entry[9]
                survivor.record_index = entry[11]
                queue[position] = survivor
        return self.result()

    def result(self) -> PipelineResult:
        """Snapshot the run's results (also usable mid-simulation)."""
        self.stats.cycles = self._cycle
        self.stats.icache_misses = self.icache.misses
        self.stats.dcache_misses = self.dcache.misses
        return PipelineResult(
            stats=self.stats,
            records=self.records,
            quadrants_committed=self._quadrants_committed,
            quadrants_all=self._quadrants_all,
        )

    # ------------------------------------------------------------------
    # commit/resolve stage
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
            count = entry.count
            if count > 1:
                # grouped plain/memory instructions: drain by count
                take = width - committed
                if count <= take:
                    take = count
                    inflight.popleft()
                else:
                    entry.count = count - take
                self._inflight_count -= take
                committed += take
                stats.committed_instructions += take
                continue
            inflight.popleft()
            self._inflight_count -= 1
            committed += 1
            stats.committed_instructions += 1
            self._retire_entry(entry)
            if entry.is_halt:
                self._program_done = True
                return
            if not entry.is_branch:
                continue
            self._resolve_branch(entry)
            if entry.mispredicted:
                return  # redirect consumed the rest of this commit group

    def _retire_entry(self, entry: _Inflight) -> None:
        """Backend hook: one in-flight entry left the window at commit.

        Called for every individually committed (``count == 1``) entry
        before halt/branch handling; grouped fast-path drains never see
        it because only the in-order backend groups entries.  The
        out-of-order backend frees the retiring instruction's previous
        physical-register mapping here."""

    def _resolve_branch(self, entry: _Inflight) -> None:
        self.stats.committed_branches += 1
        self.records.resolve(entry.record_index, self._cycle)
        correct = not entry.mispredicted
        prediction = entry.prediction
        if isinstance(prediction, Prediction):
            self.predictor.resolve(entry.pc, entry.actual_taken, prediction)
        else:
            # a compact token from an early-stopped _run_fast
            self.predictor.resolve_compact(
                entry.pc, entry.actual_taken, prediction
            )
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
            self._after_mispredicted_resolve(entry)

    def _after_mispredicted_resolve(self, entry: _Inflight) -> None:
        """Hook: what a detected misprediction costs (default: full
        squash-and-refill recovery; the dual-path simulator overrides
        this for forked branches whose alternate path already ran)."""
        self._recover_from(entry)

    def _recover_from(self, entry: _Inflight) -> None:
        """Squash younger work and restart fetch on the correct path."""
        self.machine.restore(entry.snapshot)
        self.stats.squashed_instructions += self._inflight_count
        records = self.records
        for younger in self._inflight:
            if younger.record_index >= 0:
                records.squash(younger.record_index)
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
    # fetch/decode/execute stage
    # ------------------------------------------------------------------

    def _fetch_stage(self) -> None:
        if self._decoded is not None:
            return self._fetch_stage_fast()
        config = self.config
        if self._cycle < self._fetch_stalled_until or self._fetch_faulted:
            return
        machine = self.machine
        instructions = self.program.instructions
        code_length = len(instructions)
        fetched = 0
        fetch_width = self._fetch_width()
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
                self._dispatch(entry)
                if entry.mispredicted:
                    break  # fetch group ends at a front-end redirect
            elif result.halted:
                entry.is_halt = True
                self._dispatch(entry)
                break
            else:
                self._dispatch(entry)

    def _fetch_stage_fast(self) -> None:
        """Fetch one cycle against the pre-decoded program.

        Semantically identical to the reference loop above -- same
        I-cache/D-cache traffic, same hook calls, same stats -- but
        plain straight-line runs execute as specialised closures, and
        non-branch instructions fetched this cycle share one grouped
        in-flight entry.  For a backend that overrides ``_dispatch``
        every instruction gets its own entry (plain runs are cut to
        length 1) and is dispatched where the reference loop does it.
        """
        cycle = self._cycle
        if cycle < self._fetch_stalled_until or self._fetch_faulted:
            return
        machine = self.machine
        config = self.config
        # _fetch_width() is a subclass hook with observable side effects
        # (eager dilution accounting), so it must be consulted exactly
        # when the reference loop consults it: before the halted check
        fetch_width = self._fetch_width()
        if machine.halted:
            return
        window = config.window
        count = self._inflight_count
        decoded = self._decoded
        regs = machine.regs
        memory = machine.memory
        kinds = decoded.kinds
        run_len = decoded.run_len
        plain_ops = decoded.plain_ops
        branch_ops = decoded.branch_ops
        imms = decoded.imm
        rs1s = decoded.rs1
        rs2s = decoded.rs2
        rds = decoded.rd
        code_length = decoded.length
        icache = self.icache
        dcache = self.dcache
        line_shift = icache._line_shift
        last_line = self._icache_line
        inflight = self._inflight
        ready = cycle + config.resolve_stage
        sequence = self._sequence
        fetched = 0
        retired = 0
        group = None
        dispatch = self._dispatch if self._dispatches else None
        pc = machine.pc
        while fetched < fetch_width and count < window:
            if pc < 0 or pc >= code_length:
                # runaway fetch (stale jr target on a wrong path)
                if self._unresolved_mispredictions:
                    self._fetch_faulted = True
                    break
                raise MachineFault(f"fetch outside program at pc={pc}")
            line = pc >> line_shift
            if line != last_line:
                last_line = line
                if not icache.access(pc):
                    self._fetch_stalled_until = (
                        cycle + config.icache.miss_penalty
                    )
                    break
            else:
                # repeat access to the most recent line: guaranteed hit,
                # already most-recently-used, LRU order unchanged
                icache.hits += 1
            run = run_len[pc]
            if run:
                # straight-line plain run: tight inner loop, one entry
                limit = 1 if dispatch else fetch_width - fetched
                if run > limit:
                    run = limit
                room = window - count
                if run > room:
                    run = room
                # stay on this I-cache line so the batched hit count
                # stays exact; the next line is accessed next iteration
                line_end = (line + 1) << line_shift
                if pc + run > line_end:
                    run = line_end - pc
                end = pc + run
                index = pc
                while index < end:
                    op = plain_ops[index]
                    if op is not None:
                        op(regs)
                    index += 1
                icache.hits += run - 1
                machine.pc = end
                retired += run
                fetched += run
                count += run
                if group is not None:
                    group.count += run
                else:
                    group = _Inflight(sequence, pc, ready)
                    group.count = run
                    inflight.append(group)
                    if dispatch:
                        dispatch(group)
                        group = None
                sequence += run
                pc = end
                continue
            kind = kinds[pc]
            if kind == K_BRANCH:
                taken = branch_ops[pc](regs)
                target = imms[pc]
                machine.pc = target if taken else pc + 1
                retired += 1
                fetched += 1
                count += 1
                entry = _Inflight(sequence, pc, ready)
                inflight.append(entry)
                sequence += 1
                group = None
                # keep shared state exact around the hook: overrides
                # (and snapshots) observe the true machine/pipeline
                machine.instructions_retired += retired
                retired = 0
                self._sequence = sequence
                self._inflight_count = count
                self._fetch_branch(entry, taken, target)
                if dispatch:
                    dispatch(entry)
                pc = machine.pc  # a mispredict hook may have redirected
                if entry.mispredicted:
                    break
                continue
            if kind == K_LOAD:
                address = (regs[rs1s[pc]] + imms[pc]) & WORD_MASK
                if not dcache.access(address):
                    self._congestion = min(
                        config.congestion_cap,
                        self._congestion + config.dcache.miss_penalty,
                    )
                rd = rds[pc]
                if rd:
                    regs[rd] = memory.get(address, 0)
                next_pc = pc + 1
            elif kind == K_STORE:
                address = (regs[rs1s[pc]] + imms[pc]) & WORD_MASK
                if not dcache.access(address):
                    self._congestion = min(
                        config.congestion_cap,
                        self._congestion + config.dcache.miss_penalty,
                    )
                machine.store_word(address, regs[rs2s[pc]])
                next_pc = pc + 1
            elif kind == K_JUMP:
                next_pc = imms[pc]
            elif kind == K_JAL:
                regs[31] = pc + 1
                next_pc = imms[pc]
            elif kind == K_JR:
                next_pc = regs[rs1s[pc]]
            else:  # K_HALT
                machine.halted = True
                machine.pc = pc + 1
                retired += 1
                fetched += 1
                count += 1
                entry = _Inflight(sequence, pc, ready)
                entry.is_halt = True
                inflight.append(entry)
                if dispatch:
                    dispatch(entry)
                sequence += 1
                group = None
                break
            machine.pc = next_pc
            retired += 1
            fetched += 1
            count += 1
            if group is not None:
                group.count += 1
            else:
                group = _Inflight(sequence, pc, ready)
                inflight.append(group)
                if dispatch:
                    dispatch(group)
                    group = None
            sequence += 1
            pc = next_pc
        machine.instructions_retired += retired
        self._sequence = sequence
        self._inflight_count = count
        self._icache_line = last_line
        self.stats.fetched_instructions += fetched

    def _fetch_width(self) -> int:
        """Hook: instructions fetchable this cycle (default: config
        width; the dual-path simulator halves it while a fork is live)."""
        return self.config.fetch_width

    def _dispatch(self, entry: _Inflight) -> None:
        """Backend hook: one instruction entered the window at fetch.

        Called on both fetch paths for every fetched instruction, after
        branch prediction/recording has populated ``entry`` (so a
        backend may re-time ``entry.ready_cycle``); ``entry.pc`` names
        the instruction.  An override should read only ``entry``, the
        cycle and its own state: the fast path updates the front end's
        fetch counters once per cycle, not per instruction, and gives
        every instruction its own entry only to a class that overrides
        this hook.  The in-order backend does nothing -- an
        instruction's ready cycle is fixed at fetch -- which is what
        lets its fast path group entries and skip this hook entirely.
        The out-of-order backend renames the instruction's registers,
        models issue-queue wakeup/bandwidth, and rewrites
        ``entry.ready_cycle`` to the data-dependent completion cycle
        here."""

    def _fetch_branch(self, entry: _Inflight, taken: bool, target: int) -> None:
        """Predict, assess and record one fetched conditional branch.

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
        if mispredicted:
            self.stats.fetched_mispredictions += 1
            self._precise_counter = 0
            self._front_end_mispredict(entry, target)
        else:
            self._precise_counter += 1

    def _front_end_mispredict(self, entry: _Inflight, target: int) -> None:
        """Hook: steer the front end at a mispredicted fetch (default:
        follow the wrong, predicted path until resolution; the dual-path
        simulator keeps the correct path when it forks instead).
        ``target`` is the branch's taken-target PC."""
        machine = self.machine
        self._unresolved_mispredictions += 1
        # state right after the branch went its *actual* way: the
        # recovery point if/when this branch resolves
        entry.snapshot = machine.snapshot()
        # redirect the front end down the predicted (wrong) path
        if entry.prediction.taken:
            machine.pc = target
        else:
            machine.pc = entry.pc + 1
