"""R10K-style out-of-order pipeline backend.

:class:`OutOfOrderSimulator` keeps the shared speculative *front end*
of :class:`~repro.pipeline.core.PipelineSimulator` -- fetch through the
I-cache, functional execution at decode on the journaled machine,
branch prediction + confidence tagging, wrong-path fetch until
resolution, fetch gating and dual-path forking -- and replaces the
fixed 5-stage *back end* timing with a MIPS R10000-flavoured
out-of-order execution model, through the three backend hooks
(``_dispatch``, ``_retire_entry``, ``_rollback``):

* **register rename**: a 32-entry rename map carries architectural ->
  physical mappings over a physical register file sized
  ``NUM_REGISTERS + window`` (so the free list can never run dry while
  the active list bounds in-flight work); ``r0`` is never renamed,
* **active list**: the in-flight deque itself, bounded by the
  configurable ``window`` (instructions, not groups -- because this
  backend overrides ``_dispatch``, both engines give it one entry per
  instruction), with each entry's previous mapping kept for in-order
  release at retire,
* **issue queue**: every dispatched instruction computes its wakeup
  cycle from its source operands' physical-register ready cycles, then
  claims the first issue slot at or after wakeup with free bandwidth
  (``issue_width`` per cycle, oldest first -- dispatch order *is* age
  order),
* **in-order wide commit**: the inherited commit stage already retires
  from the head of the window when the head's ``ready_cycle`` has
  passed, up to ``commit_width`` per cycle, so completion out of order
  never commits out of order,
* **squash on mispredict**: the shared recovery hands the squashed
  instructions to ``_rollback`` youngest -> oldest, which undoes their
  rename-map updates and returns their freshly allocated physical
  registers (the R10K's exception-rollback walk, applied to branches)
  before the front end restores the machine snapshot.

Because branches now *resolve at their data-dependent completion
cycle* rather than a fixed ``resolve_stage`` after fetch, wrong-path
fetch runs as deep as the window and the issue queue allow -- exactly
the regime where the paper's perceived-distance figures (8/9) and the
speculation-control applications get interesting.  The window depth
observed at every misprediction recovery is accumulated in
``stats.extra`` (see :data:`DEPTH_HISTOGRAM_KEY`) so reports can put
the two backends' distance distributions side by side.

The backend runs on the two shared engines like any other, each
simulator on the one it was built with: the fused ``run()`` loop by
default (on the same per-workload decoded program the in-order backend
uses) and the reference :meth:`~repro.isa.Machine.step` loop under
``fast=False`` or ``REPRO_PIPELINE_FAST=0`` (the only engine
``step_cycle()`` steps), the oracle it must match bit for bit.  The hooks take the fields they
read (sequence, pc, cycles), not in-flight entries, so both engines'
entry layouts call the same methods.  Operand shapes come from a per-PC
table built once per simulator, so dispatch never decodes an
instruction.  All timing state is plain lists/dicts, so the
whole-simulator pickle snapshots of :mod:`repro.pipeline.snapshot` --
and therefore segmented runs and ``--resume`` -- work unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..isa.instructions import (
    LINK_REG,
    NUM_REGISTERS,
    ZERO_REG,
    Instruction,
    OpCategory,
    Opcode,
)
from ..predictors.base import BranchPredictor
from .config import PipelineConfig
from .core import PipelineSimulator
from .decode import DecodedProgram

#: Default out-of-order active-list capacity (instructions in flight).
OOO_WINDOW = 256
#: Default issue bandwidth (instructions entering execution per cycle).
OOO_ISSUE_WIDTH = 8
#: Default retire bandwidth (instructions leaving the window per cycle).
OOO_COMMIT_WIDTH = 8
#: ``stats.extra`` key holding the {window depth -> mispredict count}
#: histogram recorded at every misprediction recovery.
DEPTH_HISTOGRAM_KEY = "ooo_mispredict_window_depth"


class OutOfOrderSimulator(PipelineSimulator):
    """Out-of-order (R10K-style) backend behind the shared front end.

    ``window``/``issue_width``/``commit_width`` size the active list,
    the issue bandwidth and the retire bandwidth; the base
    :class:`~repro.pipeline.config.PipelineConfig` supplies everything
    else (fetch width, caches, penalties).  ``decoded``/``fast`` pick
    the engine exactly as for the in-order backend.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: Optional[PipelineConfig] = None,
        estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
        decoded: Optional[DecodedProgram] = None,
        fast: Optional[bool] = None,
        window: int = OOO_WINDOW,
        issue_width: int = OOO_ISSUE_WIDTH,
        commit_width: int = OOO_COMMIT_WIDTH,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1 (got {window})")
        if issue_width < 1:
            raise ValueError(f"issue_width must be >= 1 (got {issue_width})")
        if commit_width < 1:
            raise ValueError(f"commit_width must be >= 1 (got {commit_width})")
        base = config or PipelineConfig()
        # The inherited window/commit checks read ``self.config``, so
        # the OoO capacities slot straight into the shared front end.
        super().__init__(
            program,
            predictor,
            config=replace(base, window=window, commit_width=commit_width),
            estimators=estimators,
            decoded=decoded,
            fast=fast,
        )
        self.issue_width = issue_width
        #: Per-PC operand shape: (sources without ``r0``, destination
        #: or -1, execution latency).
        self._operands = _operand_table(
            program, self.config.cache_hit_latency
        )
        num_phys = NUM_REGISTERS + window
        #: Architectural -> physical register mapping (``r0`` fixed).
        self._rename_map: List[int] = list(range(NUM_REGISTERS))
        #: Cycle at which each physical register's value is available.
        self._phys_ready: List[int] = [0] * num_phys
        #: Physical registers not bound by the map or an active entry.
        self._free_regs: Deque[int] = deque(range(NUM_REGISTERS, num_phys))
        #: sequence -> (arch reg, new phys, previous phys) for every
        #: in-flight register writer (the active-list rename columns).
        self._rename_of: Dict[int, Tuple[int, int, int]] = {}
        #: cycle -> instructions issued that cycle (issue-port ledger).
        self._issue_slots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # backend hooks
    # ------------------------------------------------------------------

    def _dispatch(self, sequence: int, pc: int, ready_cycle: int, cycle: int) -> int:
        """Rename + enqueue one fetched instruction; return its
        completion cycle (never earlier than the front end's
        ``ready_cycle``)."""
        sources, dest, latency = self._operands[pc]
        rename_map = self._rename_map
        phys_ready = self._phys_ready
        # wakeup: earliest cycle every source operand is available
        # (dispatch itself takes the cycle after fetch)
        wakeup = cycle + 1
        for reg in sources:
            ready = phys_ready[rename_map[reg]]
            if ready > wakeup:
                wakeup = ready
        # claim the first issue slot with spare bandwidth; dispatch
        # order is age order, so greedy slotting is oldest-first issue
        slots = self._issue_slots
        width = self.issue_width
        issue = wakeup
        claimed = slots.get(issue, 0)
        while claimed >= width:
            issue += 1
            claimed = slots.get(issue, 0)
        slots[issue] = claimed + 1
        complete = issue + latency
        if dest >= 0:
            new_phys = self._free_regs.popleft()
            self._rename_of[sequence] = (dest, new_phys, rename_map[dest])
            rename_map[dest] = new_phys
            phys_ready[new_phys] = complete
        if len(slots) > 4 * self.config.window:
            self._prune_issue_slots(cycle)
        # the front end's ready cycle (resolve depth + any congestion
        # charge) is the floor; data dependences can only delay it
        return complete if complete > ready_cycle else ready_cycle

    def _retire_entry(self, sequence: int) -> None:
        """Free the retiring writer's previous physical register."""
        info = self._rename_of.pop(sequence, None)
        if info is not None:
            self._free_regs.append(info[2])

    def _rollback(self, depth: int, squashed: Sequence[int]) -> None:
        """Record the window depth, then roll the rename state back.

        The squashed instructions are walked youngest -> oldest (the
        R10K exception-rollback walk): each squashed writer's map entry
        is restored to its previous mapping and its freshly allocated
        physical register is returned to the free list, leaving the
        rename state exactly as the mispredicted branch saw it.
        """
        histogram = self.stats.extra.setdefault(DEPTH_HISTOGRAM_KEY, {})
        histogram[depth] = histogram.get(depth, 0) + 1
        rename_map = self._rename_map
        rename_of = self._rename_of
        for sequence in squashed:
            info = rename_of.pop(sequence, None)
            if info is None:
                continue
            arch, new_phys, old_phys = info
            rename_map[arch] = old_phys
            self._free_regs.appendleft(new_phys)
        # squashed instructions release their claimed issue ports.  A
        # committed instruction issued before it completed (so before
        # this cycle), every later claim is squashed work, and later
        # dispatches issue after this cycle: no claim is read again
        self._issue_slots.clear()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _prune_issue_slots(self, cycle: int) -> None:
        """Drop spent (< ``cycle``) entries from the issue-port ledger."""
        slots = self._issue_slots
        for c in [c for c in slots if c < cycle]:
            del slots[c]


def _operand_table(
    program: Program, memory_latency: int
) -> List[Tuple[Tuple[int, ...], int, int]]:
    """Per-PC ``(sources without r0, destination or -1, latency)``.

    ``r0`` reads are always ready and ``r0`` writes are discarded, so
    neither touches the rename state; memory operations take
    ``memory_latency`` cycles (a D-cache hit), everything else one.
    """
    table = []
    for inst in program.instructions:
        reads, writes, is_memory = _operand_shape(inst)
        if ZERO_REG in reads:
            reads = tuple([reg for reg in reads if reg != ZERO_REG])
        table.append((
            reads,
            -1 if writes == ZERO_REG else writes,
            memory_latency if is_memory else 1,
        ))
    return table


def _operand_shape(inst: Instruction) -> Tuple[Tuple[int, ...], int, bool]:
    """(source regs, destination reg or -1, goes through the D-cache)."""
    category = inst.opcode.category
    if category is OpCategory.ALU_RRR:
        return (inst.rs1, inst.rs2), inst.rd, False
    if category is OpCategory.ALU_RRI:
        return (inst.rs1,), inst.rd, False
    if category is OpCategory.LUI:
        return (), inst.rd, False
    if category is OpCategory.LOAD:
        return (inst.rs1,), inst.rd, True
    if category is OpCategory.STORE:
        return (inst.rs1, inst.rs2), -1, True
    if category is OpCategory.BRANCH:
        return (inst.rs1, inst.rs2), -1, False
    if category is OpCategory.JUMP:
        if inst.opcode is Opcode.JAL:
            return (), LINK_REG, False
        return (), -1, False
    if category is OpCategory.JUMP_REGISTER:
        return (inst.rs1,), -1, False
    return (), -1, False  # SYSTEM: halt/nop
