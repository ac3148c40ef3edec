"""History-pattern confidence estimator (Lick et al.; paper §3).

Observes only the branch-history pattern the predictor consulted and
tags a fixed set of patterns as high confidence: *always taken, almost
always taken (once not-taken), always not-taken, almost always
not-taken, and alternating* -- the patterns Lick et al. found to lead
to correct predictions under a PAs-style predictor.

On a SAg predictor the consulted history is the branch's own local
pattern and these shapes are meaningful; on gshare/McFarling the
history is global, no dominant patterns emerge, almost everything gets
tagged low confidence, and SENS collapses -- reproducing the paper's
observation that an estimator only performs when its structure mirrors
the underlying predictor.
"""

from __future__ import annotations

from typing import FrozenSet

from ..predictors.base import BranchPredictor, Prediction
from .base import Assessment, ConfidenceEstimator


def lick_confident_patterns(history_bits: int) -> FrozenSet[int]:
    """The confident-pattern set for ``history_bits``-wide histories.

    * always taken / always not-taken,
    * "once not-taken" / "once taken" (exactly one dissenting bit),
    * the two alternating patterns (…0101 and …1010).
    """
    if history_bits < 1:
        raise ValueError("history must be at least 1 bit")
    mask = (1 << history_bits) - 1
    patterns = {0, mask}
    for bit in range(history_bits):
        patterns.add(mask ^ (1 << bit))  # almost always taken
        patterns.add(1 << bit)  # almost always not-taken
    alternating = 0
    for bit in range(history_bits):
        if bit % 2 == 0:
            alternating |= 1 << bit
    patterns.add(alternating & mask)
    patterns.add((~alternating) & mask)
    return frozenset(patterns)


class PatternHistoryEstimator(ConfidenceEstimator):
    """Fixed confident-pattern matcher over the consulted history."""

    def __init__(self, history_bits: int, patterns: FrozenSet[int] = None):
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.patterns = (
            lick_confident_patterns(history_bits) if patterns is None else patterns
        )
        self.name = "pattern"

    @classmethod
    def for_predictor(cls, predictor: BranchPredictor) -> "PatternHistoryEstimator":
        """Match the pattern width to the predictor's history width."""
        history = getattr(predictor, "history", None)
        if history is not None:  # gshare / McFarling global history
            return cls(history_bits=history.bits)
        bht = getattr(predictor, "bht", None)
        if bht is not None:  # SAg local histories
            return cls(history_bits=bht.bits)
        raise TypeError(
            f"predictor {predictor.name!r} exposes no history register"
        )

    def estimate(self, pc: int, prediction: Prediction) -> Assessment:
        return Assessment(
            (prediction.history & self.history_mask) in self.patterns
        )
