"""Prediction inversion -- the paper's §2.2 negative result.

Jacobsen et al. suggested a confidence estimator could *improve* a
branch predictor: if PVN > 50%, inverting the prediction of every
low-confidence branch wins on net (and symmetrically for PVP < 50% on
high-confidence branches).  The paper reports: *"We have examined many
confidence estimators in many configurations, but have not found a
situation where these conditions hold across a range of programs."*

This module implements the mechanism so that the negative result can
be measured rather than asserted:

* :class:`InvertingPredictor` wraps a predictor + estimator and flips
  the exported direction of low-confidence predictions.  The wrapped
  predictor trains on actual outcomes exactly as before (the inversion
  is an override stage after prediction, as hardware would do it);
* :class:`InversionResult` is the flip ledger, read off an estimator's
  quadrant counts (:meth:`InversionResult.from_measurement`): every
  low-confidence branch is a flip, which helps when the prediction was
  wrong (I_LC) and hurts when it was right (C_LC).  The speculation
  battery reads it off the estimator-bank cells that Table 2 measures;
* :func:`evaluate_inversion` is the scalar oracle: the trace engine's
  :func:`~repro.engine.measure.measure` over a name -> estimator
  mapping, each ledger read off its quadrants the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..confidence.base import ConfidenceEstimator
from ..engine.measure import MeasurementResult, measure
from ..predictors.base import BranchPredictor, Prediction


class InvertingPredictor(BranchPredictor):
    """Flip low-confidence predictions of an underlying predictor.

    ``predict`` returns a :class:`Prediction` whose ``taken`` field is
    the possibly-inverted direction; the original direction is what the
    underlying predictor pushed into its speculative history and what
    its tables train toward, so the substrate's behaviour is unchanged
    -- only the direction handed to the front end differs.
    """

    def __init__(self, base: BranchPredictor, estimator: ConfidenceEstimator):
        self.base = base
        self.estimator = estimator
        self.counter_bits = base.counter_bits
        self.name = f"invert({base.name})"
        self.flips = 0

    def predict(self, pc: int) -> Prediction:
        inner = self.base.predict(pc)
        assessment = self.estimator.estimate(pc, inner)
        taken = inner.taken
        if not assessment.high_confidence:
            taken = not taken
            self.flips += 1
        prediction = Prediction(
            taken=taken,
            index=inner.index,
            history=inner.history,
            counters=inner.counters,
            snapshot=inner.snapshot,
        )
        # keep what resolve needs: the inner prediction and assessment
        prediction.app_state = (inner, assessment)
        return prediction

    def resolve(self, pc: int, taken: bool, prediction: Prediction) -> None:
        inner, assessment = prediction.app_state
        self.base.resolve(pc, taken, inner)
        self.estimator.resolve(pc, inner, taken, assessment)

    def reset(self) -> None:
        self.base.reset()
        self.estimator.reset()
        self.flips = 0


@dataclass(frozen=True)
class InversionResult:
    """Ledger of what inverting low-confidence predictions did.

    Every figure derived from it is ``None``, not a made-up 0.0, when
    its denominator is empty.
    """

    branches: int
    base_correct: int
    flips: int
    #: Flips that fixed a would-be misprediction (LC and wrong).
    flips_helped: int
    #: Flips that broke a would-be correct prediction (LC but right).
    flips_hurt: int

    @property
    def base_accuracy(self) -> Optional[float]:
        return self.base_correct / self.branches if self.branches else None

    @property
    def inverted_accuracy(self) -> Optional[float]:
        correct = self.base_correct + self.flips_helped - self.flips_hurt
        return correct / self.branches if self.branches else None

    @property
    def accuracy_delta(self) -> Optional[float]:
        """Positive iff inversion improved the predictor."""
        if not self.branches:
            return None
        return self.inverted_accuracy - self.base_accuracy

    @property
    def flip_pvn(self) -> Optional[float]:
        """PVN of the flipped population -- the break-even is 50%.

        ``None`` when nothing flipped: an estimator that flags nothing
        has no PVN, and a made-up 0.0 would read as "below break-even".
        """
        return self.flips_helped / self.flips if self.flips else None

    @classmethod
    def from_measurement(
        cls, result: MeasurementResult, name: str
    ) -> "InversionResult":
        """The ledger of inverting estimator ``name``'s low-confidence
        branches in ``result``: flips = C_LC + I_LC, helped = I_LC,
        hurt = C_LC, and the base predictor was right on every branch
        it did not mispredict."""
        quadrant = result.quadrant(name)
        return cls(
            branches=result.branches,
            base_correct=result.branches - result.mispredictions,
            flips=int(quadrant.c_lc + quadrant.i_lc),
            flips_helped=int(quadrant.i_lc),
            flips_hurt=int(quadrant.c_lc),
        )


def evaluate_inversion(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
) -> Dict[str, InversionResult]:
    """Measure what LC-inversion would do over ``trace``, per estimator.

    Drives ``predictor`` once over ``trace`` with every estimator of
    ``estimators`` attached (no behavioural change to the substrate)
    and accounts each estimator's low-confidence branches as flips that
    either fixed a misprediction or broke a correct one.  Returns one
    :class:`InversionResult` per name.  The predictor and estimators
    are consumed exactly as by the predict/estimate/resolve loop; pass
    fresh instances for independent measurements.
    """
    if isinstance(estimators, ConfidenceEstimator):
        raise TypeError(
            "evaluate_inversion takes a name -> estimator mapping, "
            "e.g. {'jrs': estimator}"
        )
    result = measure(trace, predictor, estimators)
    return {
        name: InversionResult.from_measurement(result, name) for name in estimators
    }
