"""Dual-path (eager) execution pipeline (paper §2.2, refs [16, 9, 15, 6, 8]).

Selective dual-path fetch, a front-end mode of the speculative
pipeline (:class:`~repro.pipeline.core.PipelineSimulator`) that
:class:`EagerPipelineSimulator` switches on: when a branch is tagged
**low confidence** (and no fork is already live), the machine *forks*
-- both targets are fetched until the branch resolves.  Concretely in
this model:

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
single-path baseline and returns an :class:`EagerComparison` of the
counts its ratios (speedup, fork precision, coverage) read.
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
from .gating import check_same_work


class EagerPipelineSimulator(PipelineSimulator):
    """Pipeline with selective dual-path execution on LC branches.

    Forking is front-end state of the base simulator (the fork
    decision at fetch, the fetch dilution while a fork is live, and the
    path switch at resolution), so this class only validates and sets
    ``fork_on`` and ``fork_switch_penalty``.  ``eager_forks``,
    ``eager_covered`` and ``eager_wasted_slots`` count the forks, the
    mispredictions they hid and the fetch slots fed to losing paths.
    """

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


class EagerOutOfOrderSimulator(EagerPipelineSimulator, OutOfOrderSimulator):
    """Selective dual-path front end over the out-of-order backend.

    The fork settings and the OoO backend hooks
    (``_dispatch``/``_retire_entry``/``_rollback``) are disjoint, so
    cooperative inheritance composes them.
    """


#: Eager simulator class per pipeline backend name.
EAGER_SIMULATORS = {
    "inorder": EagerPipelineSimulator,
    "ooo": EagerOutOfOrderSimulator,
}


@dataclass(frozen=True)
class EagerComparison:
    """Single-path baseline vs dual-path run of the same workload.

    Holds the counts its ratios read, so it pickles small.  Every ratio
    is ``None``, not a made-up 0.0, when its denominator is empty.
    """

    baseline_cycles: int
    eager_cycles: int
    eager_mispredictions: int
    forks: int
    covered_mispredictions: int
    wasted_slots: int

    @property
    def speedup(self) -> Optional[float]:
        """Cycle-count improvement of eager execution (positive = wins)."""
        if not self.eager_cycles:
            return None
        return self.baseline_cycles / self.eager_cycles - 1.0

    @property
    def fork_precision(self) -> Optional[float]:
        """Fraction of forks that covered a misprediction (the PVN)."""
        return self.covered_mispredictions / self.forks if self.forks else None

    @property
    def coverage(self) -> Optional[float]:
        """Covered fraction of the eager run's mispredictions (~SPEC)."""
        total = self.eager_mispredictions
        return self.covered_mispredictions / total if total else None


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
    budget and backend; without one, it is run here.  A baseline that
    committed a different number of instructions than the eager run
    (another budget) raises ``ValueError``.
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
    eager = eager_simulator.run(max_instructions=max_instructions).stats
    check_same_work(baseline.stats, eager, "eager")
    return EagerComparison(
        baseline_cycles=baseline.stats.cycles,
        eager_cycles=eager.cycles,
        eager_mispredictions=eager.committed_mispredictions,
        forks=eager_simulator.eager_forks,
        covered_mispredictions=eager_simulator.eager_covered,
        wasted_slots=eager_simulator.eager_wasted_slots,
    )
