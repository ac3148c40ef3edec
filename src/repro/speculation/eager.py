"""Eager (dual-path) execution cost model (paper §2.2).

Eager-execution architectures fork down both targets of a
low-confidence branch so that a misprediction costs (almost) nothing.
Forking is not free: while two paths are live they split the front
end's bandwidth.  Whether an estimator pays its way is therefore a
direct function of the paper's metrics -- every covered misprediction
(SPEC) earns the recovery penalty back, every false alarm (1 - PVN)
pays the fork tax for nothing.

Rather than simulating a full dual-path front end, this module prices
a pipeline run's branch records under the standard eager-execution
accounting; it makes the PVN/SPEC trade-off quantitative and lets the
example compare estimators on identical branch streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..pipeline.config import PipelineConfig
from ..pipeline.records import BranchRecord


@dataclass(frozen=True)
class EagerOutcome:
    """Cycle accounting for eager execution driven by one estimator."""

    estimator: str
    #: Committed branches the model forked on (tagged low-confidence).
    forks: int
    #: Forks that covered a real misprediction (penalty avoided).
    covered_mispredictions: int
    #: Mispredictions not forked on (still pay the full penalty).
    uncovered_mispredictions: int
    #: Cycles recovered per covered misprediction.
    penalty_per_misprediction: int
    #: Bandwidth-dilution cost charged per fork.
    cost_per_fork: float

    @property
    def cycles_saved(self) -> float:
        return self.covered_mispredictions * self.penalty_per_misprediction

    @property
    def cycles_spent(self) -> float:
        return self.forks * self.cost_per_fork

    @property
    def net_cycles(self) -> float:
        """Positive = eager execution pays off under this estimator."""
        return self.cycles_saved - self.cycles_spent

    @property
    def fork_precision(self) -> Optional[float]:
        """Fraction of forks that covered a misprediction (the PVN!);
        ``None`` without forks."""
        return self.covered_mispredictions / self.forks if self.forks else None

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of mispredictions covered (the SPEC!); ``None``
        without mispredictions."""
        total = self.covered_mispredictions + self.uncovered_mispredictions
        return self.covered_mispredictions / total if total else None


def evaluate_eager_execution(
    records: Sequence[BranchRecord],
    estimator: str,
    config: PipelineConfig = None,
    dilution: float = 0.5,
) -> EagerOutcome:
    """Price eager execution over committed branch records.

    A fork on a mispredicted branch earns back the full misprediction
    penalty (branch-resolution depth plus the extra recovery charge).
    Every fork costs ``dilution * resolve_stage`` cycles of lost fetch
    bandwidth while both paths are live.
    """
    config = config or PipelineConfig()
    if not 0.0 <= dilution <= 1.0:
        raise ValueError("dilution must be in [0, 1]")
    penalty = config.resolve_stage + config.mispredict_penalty
    forks = 0
    covered = 0
    uncovered = 0
    for record in records:
        if not record.committed:
            continue
        try:
            high_confidence = record.assessments[estimator]
        except KeyError:
            raise KeyError(
                f"records carry no assessments for estimator {estimator!r}"
            ) from None
        if not high_confidence:
            forks += 1
            if record.mispredicted:
                covered += 1
        elif record.mispredicted:
            uncovered += 1
    return EagerOutcome(
        estimator=estimator,
        forks=forks,
        covered_mispredictions=covered,
        uncovered_mispredictions=uncovered,
        penalty_per_misprediction=penalty,
        cost_per_fork=dilution * config.resolve_stage,
    )
