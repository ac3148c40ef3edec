"""R10K-style out-of-order pipeline backend.

:class:`OutOfOrderSimulator` keeps the shared speculative *front end*
of :class:`~repro.pipeline.core.PipelineSimulator` -- fetch through the
I-cache, functional execution at decode on the journaled machine,
branch prediction + confidence tagging, wrong-path fetch until
resolution, fetch gating and dual-path forking -- and replaces the
fixed 5-stage *back end* timing with a MIPS R10000-flavoured
out-of-order execution model, through the three backend hooks
(``_dispatch``, ``_checkpoint``, ``_rollback``):

* **register ready table**: one ready cycle per architectural register
  (``r0`` never written).  Renaming only ever served timing, and a
  writer's new physical register takes its completion cycle, so the
  table holds exactly what the rename map's current physical registers
  would: no physical register file, free list or per-writer record,
* **active list**: the in-flight deque itself, bounded by the
  configurable ``window`` (instructions, not groups -- this backend
  times every instruction, so both engines give it one entry per
  instruction); retiring from it takes no backend work,
* **issue queue**: every dispatched instruction computes its wakeup
  cycle from its source operands' ready cycles, then claims the first
  issue slot at or after wakeup with free bandwidth (``issue_width``
  per cycle, oldest first -- dispatch order *is* age order), and
  writes its completion cycle into its destination's entry,
* **in-order wide commit**: the inherited commit stage already retires
  from the head of the window when the head's ``ready_cycle`` has
  passed, up to ``commit_width`` per cycle, so completion out of order
  never commits out of order,
* **branch checkpoints**: a mispredicted branch keeps a copy of the
  table next to the machine snapshot it already takes (the R10000's
  branch-stack checkpoint); its recovery restores that copy and clears
  the issue ledger, so no squashed instruction is walked.  A branch
  writes no register, so the copy equals the table after its dispatch
  on either engine.

Because branches now *resolve at their data-dependent completion
cycle* rather than a fixed ``resolve_stage`` after fetch, wrong-path
fetch runs as deep as the window and the issue queue allow -- exactly
the regime where the paper's perceived-distance figures (8/9) and the
speculation-control applications get interesting.  The window depth
observed at every misprediction recovery is accumulated in
``stats.extra`` (see :data:`DEPTH_HISTOGRAM_KEY`) so reports can put
the two backends' distance distributions side by side.

The backend runs on the two shared engines, each simulator on the one
it was built with: the fused ``run()`` loop by default (on the same
per-workload decoded program the in-order backend uses) and the
reference :meth:`~repro.isa.Machine.step` loop under ``fast=False`` or
``REPRO_PIPELINE_FAST=0`` (the only engine ``step_cycle()`` steps).
Only the reference engine calls the hooks below: they are this model's
oracle.  The fused loop carries an inline copy of the model in
:meth:`~repro.pipeline.core.PipelineSimulator._run_fast`, on the same
state, and the fused-vs-reference tests hold it to the hooks bit for
bit, as the predictors' ``predict``/``resolve`` are held to their
inlined copies.  A change to the model changes both.  Operand shapes
come from the decoded program's per-PC operand table
(:meth:`~repro.pipeline.decode.DecodedProgram.operand_table`), built
once per program and shared by every simulator of it on either engine,
so dispatch never decodes an instruction.  All timing state is plain
lists/dicts, so the whole-simulator pickle snapshots of
:mod:`repro.pipeline.snapshot` -- and therefore segmented runs and
``--resume`` -- work unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..isa.instructions import NUM_REGISTERS
from ..predictors.base import BranchPredictor
from .config import PipelineConfig
from .core import DEPTH_HISTOGRAM_KEY, PipelineSimulator
from .decode import DecodedProgram, decode_program

#: Default out-of-order active-list capacity (instructions in flight).
OOO_WINDOW = 256
#: Default issue bandwidth (instructions entering execution per cycle).
OOO_ISSUE_WIDTH = 8
#: Default retire bandwidth (instructions leaving the window per cycle).
OOO_COMMIT_WIDTH = 8


class OutOfOrderSimulator(PipelineSimulator):
    """Out-of-order (R10K-style) backend behind the shared front end.

    ``window``/``issue_width``/``commit_width`` size the active list,
    the issue bandwidth and the retire bandwidth; the base
    :class:`~repro.pipeline.config.PipelineConfig` supplies everything
    else (fetch width, caches, penalties).  ``decoded``/``fast`` pick
    the engine exactly as for the in-order backend; both engines read
    the operand table off ``decoded`` (decoding ``program`` when none is
    given).
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
        if decoded is None:
            decoded = self._decoded or decode_program(program)
        #: Per-PC operand shape: (sources without ``r0``, destination
        #: or -1, execution latency), shared with every simulator of
        #: ``decoded``.
        self._operands = decoded.operand_table(self.config.cache_hit_latency)
        #: Cycle at which each architectural register's value is
        #: available: the completion cycle of its youngest writer.
        self._reg_ready: List[int] = [0] * NUM_REGISTERS
        #: cycle -> instructions issued that cycle (issue-port ledger).
        self._issue_slots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # backend hooks (the reference engine's; _run_fast inlines them)
    # ------------------------------------------------------------------

    def _dispatch(self, pc: int, ready_cycle: int, cycle: int) -> int:
        """Enqueue one fetched instruction; return its completion cycle
        (never earlier than the front end's ``ready_cycle``)."""
        sources, dest, latency = self._operands[pc]
        reg_ready = self._reg_ready
        # wakeup: earliest cycle every source operand is available
        # (dispatch itself takes the cycle after fetch)
        wakeup = cycle + 1
        for reg in sources:
            ready = reg_ready[reg]
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
            reg_ready[dest] = complete
        if len(slots) > 4 * self.config.window:
            self._prune_issue_slots(cycle)
        # the front end's ready cycle (resolve depth + any congestion
        # charge) is the floor; data dependences can only delay it
        return complete if complete > ready_cycle else ready_cycle

    def _checkpoint(self) -> List[int]:
        """A copy of the register ready table, kept by a mispredicted
        branch next to its machine snapshot."""
        return self._reg_ready[:]

    def _rollback(self, depth: int, checkpoint: List[int]) -> None:
        """Record the window depth, then restore the branch's checkpoint.

        Every squashed writer is younger than the branch, so the table
        the branch saw is the table after the squash: no squashed
        instruction is walked.
        """
        histogram = self.stats.extra.setdefault(DEPTH_HISTOGRAM_KEY, {})
        histogram[depth] = histogram.get(depth, 0) + 1
        self._reg_ready[:] = checkpoint
        # squashed instructions release their claimed issue ports.  A
        # committed instruction issued before it completed (so before
        # this cycle), every later claim is squashed work, and later
        # dispatches issue after this cycle: no claim is read again
        self._issue_slots.clear()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _prune_issue_slots(self, cycle: int) -> None:
        """Drop spent (< ``cycle``) entries from the issue-port ledger
        (both engines call it)."""
        slots = self._issue_slots
        for c in [c for c in slots if c < cycle]:
            del slots[c]
