"""Dual-path (eager) execution pipeline (paper §2.2, refs [16, 9, 15, 6, 8]).

A selective dual-path front end on top of the speculative pipeline:
when a branch is tagged **low confidence** (and no fork is already
live), the machine *forks* -- both targets are fetched until the branch
resolves.  Concretely in this model:

* while a fork is live the fetch bandwidth is halved (the alternate
  path consumes the other half -- its instructions are pure overhead
  and are accounted as ``eager_wasted_slots``);
* if the forked branch turns out **mispredicted**, the correct path was
  already being fetched, so there is no squash and no refill: the
  misprediction penalty is replaced by a small ``fork_switch_penalty``
  (default 1 cycle to retire the losing path's resources);
* if it was predicted correctly, the fork bought nothing and the
  dilution was the price of insurance.

One fork may be live at a time (selective eager execution), and forks
are only taken on the architecturally known-good path -- matching the
simple dual-path proposals the paper cites.

Whether this wins is exactly the paper's metric story: every *covered*
misprediction (SPEC) converts a full pipeline flush into one cycle;
every false alarm (1 - PVN) pays the dilution for nothing.  A good
estimator turns eager execution from a loss into a gain;
:func:`compare_eager_execution` measures both ends against the
single-path baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..pipeline.backends import create_simulator, normalize_backend
from ..pipeline.config import PipelineConfig
from ..pipeline.core import PipelineResult, PipelineSimulator
from ..pipeline.decode import DecodedProgram
from ..pipeline.ooo import OutOfOrderSimulator
from ..predictors.base import BranchPredictor


class EagerPipelineSimulator(PipelineSimulator):
    """Pipeline with selective dual-path execution on LC branches."""

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: Optional[PipelineConfig] = None,
        estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
        fork_on: Optional[str] = None,
        fork_switch_penalty: int = 1,
        decoded: Optional[DecodedProgram] = None,
        fast: Optional[bool] = None,
    ):
        super().__init__(
            program,
            predictor,
            config=config,
            estimators=estimators,
            decoded=decoded,
            fast=fast,
        )
        available = ", ".join(sorted(self.estimators)) or "<none attached>"
        if fork_on is None or fork_on not in self.estimators:
            raise ValueError(
                f"fork_on must name one of the attached estimators "
                f"({available}), got {fork_on!r}"
            )
        if fork_switch_penalty < 0:
            raise ValueError("fork_switch_penalty must be non-negative")
        self.fork_on = fork_on
        self.fork_switch_penalty = fork_switch_penalty
        self._active_fork = None  # the in-flight forked branch entry
        #: Branch predictions made since the fork (= how deep the
        #: forked branch's speculative-history bit has shifted).
        self._branches_since_fork = 0
        self.eager_forks = 0
        self.eager_covered = 0  # forks that hid a misprediction
        self.eager_wasted_slots = 0  # fetch slots fed to losing paths

    # ------------------------------------------------------------------
    # fork bookkeeping
    # ------------------------------------------------------------------

    def _entry_low_confidence(self, entry) -> bool:
        for name, __, assessment in entry.assessments:
            if name == self.fork_on:
                return not assessment.high_confidence
        return False

    def _fork_eligible(self, entry) -> bool:
        return (
            self._active_fork is None
            and self._unresolved_mispredictions == 0
            and self._entry_low_confidence(entry)
        )

    def _activate_fork(self, entry) -> None:
        self._active_fork = entry
        self._branches_since_fork = 0
        self.eager_forks += 1

    # ------------------------------------------------------------------
    # pipeline hooks
    # ------------------------------------------------------------------

    def _fetch_width(self) -> int:
        width = self.config.fetch_width
        if self._active_fork is not None:
            # the alternate path consumes the other half of the port
            diluted = max(1, width // 2)
            self.eager_wasted_slots += width - diluted
            return diluted
        return width

    def _front_end_mispredict(self, entry, target) -> None:
        if self._fork_eligible(entry):
            # fork: the alternate context is fetching the *correct*
            # path, which is the one the journaled machine already
            # follows -- so no redirect and no snapshot are needed;
            # the predicted (wrong) path is the one we model as the
            # diluted half of the port
            self._activate_fork(entry)
            # hardware forks the history register per path: the
            # alternate (surviving) context carries the complement
            # direction bit, so flip it for the stream we simulate
            history = getattr(self.predictor, "history", None)
            if history is not None and getattr(
                self.predictor, "speculative_history", False
            ):
                history.set(history.value ^ 1)
            return
        super()._front_end_mispredict(entry, target)

    def _fetch_branch(self, entry, taken, target) -> None:
        already_forked = self._active_fork is not None
        super()._fetch_branch(entry, taken, target)
        if already_forked and entry is not self._active_fork:
            self._branches_since_fork += 1
        elif (
            entry.is_branch
            and not entry.mispredicted
            and self._fork_eligible(entry)
        ):
            # correctly predicted LC branch: fork anyway (hardware
            # cannot know), paying dilution for nothing
            self._activate_fork(entry)

    def _after_mispredicted_resolve(self, entry) -> None:
        if entry is self._active_fork:
            # the alternate (correct) path wins: swap it in for the
            # cost of a switch, not a flush
            self._active_fork = None
            self.eager_covered += 1
            self._fetch_stalled_until = max(
                self._fetch_stalled_until,
                self._cycle + self.fork_switch_penalty,
            )
            return
        super()._after_mispredicted_resolve(entry)

    def _resolve_branch(self, entry) -> None:
        fork = entry is self._active_fork
        if fork and entry.mispredicted:
            # The surviving path's history was already corrected at fork
            # time (per-path history registers), and the younger branches
            # in flight are the surviving path -- so the single-path
            # *repair* inside the predictor's resolve, which rewinds to
            # the fork's snapshot, must be a no-op here: preserve the
            # register across the table-training call.
            history = getattr(self.predictor, "history", None)
            speculative = getattr(self.predictor, "speculative_history", False)
            if history is not None and speculative:
                preserved = history.value
                super()._resolve_branch(entry)  # tables train; repair clobbers
                history.set(preserved)
            else:
                super()._resolve_branch(entry)  # non-speculative: nothing to fix
        else:
            super()._resolve_branch(entry)
        if fork and entry is self._active_fork:
            # correctly predicted fork: the insurance expires unused
            self._active_fork = None


class EagerOutOfOrderSimulator(EagerPipelineSimulator, OutOfOrderSimulator):
    """Selective dual-path front end over the out-of-order backend.

    The eager overrides (fetch width/steering/resolution) and the OoO
    backend hooks (``_dispatch``/``_retire_entry``/``_recover_from``)
    are disjoint, so cooperative inheritance composes them.
    """


#: Eager simulator class per pipeline backend name.
EAGER_SIMULATORS = {
    "inorder": EagerPipelineSimulator,
    "ooo": EagerOutOfOrderSimulator,
}


@dataclass(frozen=True)
class EagerComparison:
    """Single-path baseline vs dual-path run of the same workload."""

    baseline: PipelineResult
    eager: PipelineResult
    forks: int
    covered_mispredictions: int
    wasted_slots: int

    @property
    def speedup(self) -> float:
        """Cycle-count improvement of eager execution (positive = wins)."""
        if not self.eager.stats.cycles:
            return 0.0
        return self.baseline.stats.cycles / self.eager.stats.cycles - 1.0

    @property
    def fork_precision(self) -> float:
        """Fraction of forks that covered a misprediction (the PVN)."""
        return self.covered_mispredictions / self.forks if self.forks else 0.0

    @property
    def coverage(self) -> float:
        """Covered fraction of the eager run's mispredictions (~SPEC)."""
        total = self.eager.stats.committed_mispredictions
        return self.covered_mispredictions / total if total else 0.0


def compare_eager_execution(
    program: Program,
    predictor_factory: Callable[[], BranchPredictor],
    estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
    config: Optional[PipelineConfig] = None,
    max_instructions: Optional[int] = None,
    fork_switch_penalty: int = 1,
    decoded: Optional[DecodedProgram] = None,
    backend: Optional[str] = None,
    baseline: Optional[PipelineResult] = None,
) -> EagerComparison:
    """Run the same workload single-path and dual-path and compare.

    ``decoded`` optionally shares one pre-decoded program between runs.
    ``backend`` selects the pipeline backend for both runs.
    ``baseline`` is a finished single-path run of the same program,
    budget and backend; without one, it is run here.
    """
    backend = normalize_backend(backend)
    if baseline is None:
        baseline = create_simulator(
            program, predictor_factory(), backend=backend, config=config, decoded=decoded
        ).run(max_instructions=max_instructions)

    eager_predictor = predictor_factory()
    eager_simulator = EAGER_SIMULATORS[backend](
        program,
        eager_predictor,
        config=config,
        estimators={"fork": estimator_factory(eager_predictor)},
        fork_on="fork",
        fork_switch_penalty=fork_switch_penalty,
        decoded=decoded,
    )
    eager = eager_simulator.run(max_instructions=max_instructions)
    return EagerComparison(
        baseline=baseline,
        eager=eager,
        forks=eager_simulator.eager_forks,
        covered_mispredictions=eager_simulator.eager_covered,
        wasted_slots=eager_simulator.eager_wasted_slots,
    )
