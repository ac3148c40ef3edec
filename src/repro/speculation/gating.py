"""Pipeline gating for power conservation (paper §2.2, reference [11]).

The companion application the authors describe (Manne et al., "Pipeline
Gating: Speculation Control for Energy Reduction"): stop fetching while
the number of *unresolved low-confidence branches* in flight is at
least a gating threshold.  Wrong-path instructions cost energy but can
never help performance, so a good estimator (high SPEC to catch most
mispredictions, decent PVN to avoid false alarms) trades a tiny
slowdown for a large cut in wasted (squashed) work.

:class:`GatedPipelineSimulator` switches on the gate that the
speculative pipeline's front end carries
(:class:`~repro.pipeline.core.PipelineSimulator`); :func:`compare_gating`
runs gated vs. ungated configurations and returns a
:class:`GatingComparison`: the two runs' counts, with the paper's
figures of merit (extra-work reduction, IPC and cycle loss) as
properties.
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
from ..pipeline.records import PipelineStats
from ..predictors.base import BranchPredictor


class GatedPipelineSimulator(PipelineSimulator):
    """Pipeline whose front end gates on low-confidence branch count.

    Fetch is suppressed in any cycle where at least ``gate_threshold``
    unresolved low-confidence branches (as judged by the estimator
    named ``gate_on``) are in flight; ``gated_cycles`` counts those
    cycles.  The gate is front-end state of the base simulator, so
    this class only validates and sets it.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: Optional[PipelineConfig] = None,
        estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
        gate_on: Optional[str] = None,
        gate_threshold: int = 1,
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
        if gate_on is None or gate_on not in self.estimators:
            raise ValueError(
                f"gate_on must name one of the attached estimators "
                f"({available}), got {gate_on!r}"
            )
        if gate_threshold < 1:
            raise ValueError(
                f"gate_threshold must be >= 1 (got {gate_threshold}); it is "
                f"the number of unresolved low-confidence branches, judged "
                f"by estimator {gate_on!r}, that stalls fetch"
            )
        self.gate_on = gate_on
        self.gate_threshold = gate_threshold


class GatedOutOfOrderSimulator(GatedPipelineSimulator, OutOfOrderSimulator):
    """Gated front end over the out-of-order backend.

    The gate settings and the OoO backend hooks
    (``_dispatch``/``_checkpoint``/``_rollback``) are disjoint, so
    plain cooperative inheritance composes them.
    """


def check_same_work(baseline: PipelineStats, run: PipelineStats, label: str) -> None:
    """Refuse a comparison whose two runs committed different work:
    cycle and squash ratios are only meaningful over the same
    instructions, and a matching baseline commits exactly as many."""
    expected = baseline.committed_instructions
    committed = run.committed_instructions
    if committed != expected:
        raise ValueError(
            f"baseline committed {expected} instructions but the {label}"
            f" run committed {committed}: pass a baseline run of the same"
            " program, instruction budget and backend"
        )


#: Gated simulator class per pipeline backend name.
GATED_SIMULATORS = {
    "inorder": GatedPipelineSimulator,
    "ooo": GatedOutOfOrderSimulator,
}


@dataclass(frozen=True)
class GatingComparison:
    """Gated vs. ungated run of the same program/predictor/estimator.

    Holds the counts its ratios read, so it pickles small: both runs
    committed the same ``committed_instructions`` (:func:`check_same_work`).
    Every ratio is ``None``, not a made-up 0.0, when its denominator is
    empty.
    """

    committed_instructions: int
    baseline_cycles: int
    baseline_fetched: int
    baseline_squashed: int
    #: The gated run's own cycle count.
    gated_run_cycles: int
    gated_fetched: int
    gated_squashed: int
    #: The gated run's committed mispredictions (each costs a recovery).
    gated_mispredictions: int
    #: Cycles the gate stalled fetch.
    gated_cycles: int

    @property
    def baseline_extra_work(self) -> Optional[float]:
        """Squashed (wasted) fraction of fetched instructions, ungated."""
        if not self.baseline_fetched:
            return None
        return self.baseline_squashed / self.baseline_fetched

    @property
    def gated_extra_work(self) -> Optional[float]:
        if not self.gated_fetched:
            return None
        return self.gated_squashed / self.gated_fetched

    @property
    def wrong_path_saved(self) -> int:
        """Squashed (wrong-path) instructions the gate avoided."""
        return self.baseline_squashed - self.gated_squashed

    @property
    def extra_work_reduction(self) -> Optional[float]:
        """Relative cut in squashed instructions (the power win)."""
        if not self.baseline_squashed:
            return None
        return self.wrong_path_saved / self.baseline_squashed

    @property
    def ipc_delta(self) -> Optional[float]:
        """Relative IPC change, gated vs. ungated (negative = lost)."""
        committed = self.committed_instructions
        if not (committed and self.baseline_cycles and self.gated_run_cycles):
            return None
        base = committed / self.baseline_cycles
        return committed / self.gated_run_cycles / base - 1.0

    @property
    def slowdown(self) -> Optional[float]:
        """Relative increase in cycles to complete the same work."""
        if not self.baseline_cycles:
            return None
        return self.gated_run_cycles / self.baseline_cycles - 1.0


def compare_gating(
    program: Program,
    predictor_factory: Callable[[], BranchPredictor],
    estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
    gate_threshold: int = 1,
    config: Optional[PipelineConfig] = None,
    max_instructions: Optional[int] = None,
    decoded: Optional[DecodedProgram] = None,
    backend: Optional[str] = None,
    baseline: Optional[PipelineResult] = None,
) -> GatingComparison:
    """Run the same workload gated and ungated and compare.

    Factories are used (rather than instances) because the two runs
    need independent predictor/estimator state.  ``decoded`` optionally
    shares one pre-decoded program between both runs.  ``backend``
    selects the pipeline backend for *both* runs (default in-order).
    ``baseline`` is a finished ungated run of the same program, budget
    and backend; without one, it is run here.  No estimator steers an
    ungated run, so one baseline serves every estimator and threshold.
    A baseline that committed a different number of instructions than
    the gated run (another budget) raises ``ValueError``.
    """
    backend = normalize_backend(backend)
    if baseline is None:
        baseline = create_simulator(
            program, predictor_factory(), backend=backend, config=config, decoded=decoded
        ).run(max_instructions=max_instructions)

    gated_predictor = predictor_factory()
    gated_simulator = GATED_SIMULATORS[backend](
        program,
        gated_predictor,
        config=config,
        estimators={"gate": estimator_factory(gated_predictor)},
        gate_on="gate",
        gate_threshold=gate_threshold,
        decoded=decoded,
    )
    base = baseline.stats
    gated = gated_simulator.run(max_instructions=max_instructions).stats
    check_same_work(base, gated, "gated")
    return GatingComparison(
        committed_instructions=gated.committed_instructions,
        baseline_cycles=base.cycles,
        baseline_fetched=base.fetched_instructions,
        baseline_squashed=base.squashed_instructions,
        gated_run_cycles=gated.cycles,
        gated_fetched=gated.fetched_instructions,
        gated_squashed=gated.squashed_instructions,
        gated_mispredictions=gated.committed_mispredictions,
        gated_cycles=gated_simulator.gated_cycles,
    )
