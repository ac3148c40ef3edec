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
* :func:`evaluate_inversion` measures base vs inverted accuracy and
  the flip ledger (an :class:`InversionResult`) of every estimator in
  a name -> estimator mapping, driving the predictor once for all of
  them.  A speculative-history gshare with JRS, misprediction-distance
  and boosted estimators (the speculation battery's mix) takes an
  inlined pass: gshare runs once with its table and history in locals,
  then one inlined loop per estimator reads the recorded per-branch
  columns.  Any other mix runs
  the trace engine's :func:`~repro.engine.measure.measure` and reads
  each ledger off its quadrants.  Both leave every object in the state
  the predict/estimate/resolve loop would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..confidence.base import ConfidenceEstimator
from ..confidence.inlined import inlined_parts
from ..confidence.jrs import JRSEstimator
from ..engine.measure import measure
from ..predictors.base import BranchPredictor, Prediction
from ..predictors.gshare import GsharePredictor
from ..workloads.trace import BranchTrace


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
    if _inlinable(predictor, estimators):
        return _inlined_pass(trace, predictor, estimators)
    return _protocol_pass(trace, predictor, estimators)


def _protocol_pass(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
) -> Dict[str, InversionResult]:
    """The reference pass: the trace engine's :func:`measure`, each
    ledger read off its estimator's quadrants (an LC branch is a flip;
    it hurts when the prediction was correct)."""
    result = measure(trace, predictor, estimators)
    return {
        name: InversionResult(
            branches=result.branches,
            base_correct=result.branches - result.mispredictions,
            flips=int(quadrant.c_lc + quadrant.i_lc),
            flips_helped=int(quadrant.i_lc),
            flips_hurt=int(quadrant.c_lc),
        )
        for name, quadrant in result.quadrants.items()
    }


def _inlinable(
    predictor: BranchPredictor, estimators: Mapping[str, ConfidenceEstimator]
) -> bool:
    """Whether :func:`_inlined_pass` reproduces the protocol loop for
    this predictor and estimator mix (each estimator by the rule of
    :func:`~repro.confidence.inlined.inlined_parts`)."""
    if not (
        type(predictor) is GsharePredictor
        and predictor.speculative_history
        # the pushed history must fit the unsigned 64-bit column
        and predictor.history.bits < 64
    ):
        return False
    state = []
    for estimator in estimators.values():
        parts = inlined_parts(estimator)
        if parts is None:
            return False
        state.append(estimator)
        if parts[0] is not estimator:
            state.append(parts[0])
    # the inlined pass runs the estimators one after another, so none
    # may share state with another (the protocol loop interleaves them)
    return len({id(estimator) for estimator in state}) == len(state)


def _inlined_pass(
    trace: Iterable[Tuple[int, bool]],
    predictor: GsharePredictor,
    estimators: Mapping[str, ConfidenceEstimator],
) -> Dict[str, InversionResult]:
    """gshare once over ``trace``, then one inlined loop per estimator.

    In the trace engine every branch resolves right after it is
    predicted, so no estimator ever reads the predictor's state: each
    one needs only the per-branch columns the gshare pass records.
    """
    if not isinstance(trace, BranchTrace):
        trace = BranchTrace.from_records(trace)
    pcs = trace.pcs
    pushed, correct = _gshare_columns(pcs, trace.outcomes, predictor)
    base_correct = correct.count(1)
    results = {}
    for name, estimator in estimators.items():
        flips, hurt = _inlined_flips(estimator, pcs, pushed, correct)
        results[name] = InversionResult(
            branches=len(correct),
            base_correct=base_correct,
            flips=flips,
            flips_helped=flips - hurt,
            flips_hurt=hurt,
        )
    return results


def _gshare_columns(
    pcs: array, outcomes: bytearray, predictor: GsharePredictor
) -> Tuple[array, bytearray]:
    """Run ``predictor`` over the branch stream with its table and
    history in locals, and write its final state back.

    Returns two columns: each branch's history with its predicted
    direction shifted in, unmasked (what the enhanced JRS index reads;
    ``>> 1`` gives the history the prediction used, ``& 1`` the
    direction), and whether the prediction was correct (0/1).
    """
    table = predictor.table
    values = table.values
    index_mask = table.index_mask
    midpoint = table.midpoint
    max_value = table.max_value
    register = predictor.history
    history_mask = register.mask
    history = register.value
    pushed = array("Q")
    correct = bytearray()
    pushed_append = pushed.append
    correct_append = correct.append
    for pc, taken in zip(pcs, outcomes):
        index = (pc ^ history) & index_mask
        counter = values[index]
        predicted = counter >= midpoint
        pushed_append((history << 1) | predicted)
        correct_append(predicted == taken)
        # resolve: the counter moves toward the outcome, and the repair
        # of a misprediction leaves the history exactly as pushing the
        # outcome would have
        if taken:
            if counter < max_value:
                values[index] = counter + 1
            history = ((history << 1) | 1) & history_mask
        else:
            if counter > 0:
                values[index] = counter - 1
            history = (history << 1) & history_mask
    register.value = history
    return pushed, correct


def _inlined_flips(
    estimator: ConfidenceEstimator,
    pcs: array,
    pushed: array,
    correct: bytearray,
) -> Tuple[int, int]:
    """``(flips, flips_hurt)`` of one estimator over the gshare columns,
    with its table or counter in locals and its final state written
    back.  A plain estimator runs as a boost with ``k = 1``
    (:func:`~repro.confidence.inlined.inlined_parts`).
    """
    base, k, run = inlined_parts(estimator)
    flips = 0
    hurt = 0
    if type(base) is JRSEstimator:
        table = base.table
        values = table.values
        index_mask = table.index_mask
        max_value = table.max_value
        threshold = base.threshold
        shift = 0 if base.enhanced else 1
        for pc, history, hit in zip(pcs, pushed, correct):
            index = (pc ^ (history >> shift)) & index_mask
            value = values[index]
            if value >= threshold:
                run = 0
            else:
                run += 1
                if run >= k:
                    flips += 1
                    hurt += hit
            if hit:
                if value < max_value:
                    values[index] = value + 1
            else:
                values[index] = 0
    else:
        threshold = base.distance_threshold
        distance = base.branches_since_misprediction
        for hit in correct:
            if distance > threshold:
                run = 0
            else:
                run += 1
                if run >= k:
                    flips += 1
                    hurt += hit
            distance = distance + 1 if hit else 0
        base.branches_since_misprediction = distance
    if base is not estimator:
        estimator._lc_run = run
    return flips, hurt
