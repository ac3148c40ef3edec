"""Clustering analyses of estimator behaviour (paper §4.1-4.2).

Two measurements back the paper's boosting argument:

* :func:`misestimation_distance` -- are confidence *mis-estimations*
  clustered the way branch mispredictions are?  The paper finds only
  slight clustering (45% mis-estimation rate right after a
  mis-estimation, decaying to ~33% past distance 8), which is what
  licenses treating consecutive estimates as near-Bernoulli trials.
* :func:`measure_boosting` -- the empirical PVN of "k consecutive
  low-confidence estimates" events versus the Bernoulli prediction
  ``1 - (1 - PVN)^k``.

Both are built on small observer classes that track *one* estimator by
name in the flag mapping :func:`repro.engine.measure.measure` hands
every observer.  Earlier versions unpacked ``flags.values()`` and
assumed exactly one estimator was attached, which crashed any
measurement carrying zero or several estimators -- exactly what the
speculation-control sweeps do.  The observers skip branches measured
without their estimator attached, so they compose with arbitrary
multi-estimator measurements.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..confidence.base import ConfidenceEstimator
from ..confidence.boosting import BoostingAccumulator, BoostingResult
from ..engine import boosting_counts, misestimation_pairs, record_simulation
from ..engine.measure import measure
from ..predictors.base import BranchPredictor
from .distance import DistanceCurve, _curve_from_columns

#: Estimator slot the single-estimator convenience wrappers use.
DEFAULT_SLOT = "est"


class MisestimationDistanceObserver:
    """Collect (distance, misestimated) pairs for one named estimator.

    A branch is *mis-estimated* when the confidence estimate disagrees
    with the eventual outcome (HC but mispredicted, or LC but correct).
    Branches whose flag mapping does not carry ``estimator_name`` (the
    estimator was not attached to that measurement) are ignored.
    """

    def __init__(self, estimator_name: str = DEFAULT_SLOT):
        self.estimator_name = estimator_name
        self.pairs: List[Tuple[int, bool]] = []
        self._distance = 0

    def __call__(
        self, pc: int, predicted: bool, actual: bool, flags: Dict[str, bool]
    ) -> None:
        high = flags.get(self.estimator_name)
        if high is None:
            return
        correct_prediction = predicted == actual
        misestimated = high != correct_prediction
        self.pairs.append((self._distance, misestimated))
        self._distance = 0 if misestimated else self._distance + 1


class BoostingObserver:
    """Feed one named estimator's stream into a :class:`BoostingAccumulator`.

    Like :class:`MisestimationDistanceObserver`, branches measured
    without the named estimator attached are skipped.
    """

    def __init__(
        self,
        accumulator: BoostingAccumulator,
        estimator_name: str = DEFAULT_SLOT,
    ):
        self.accumulator = accumulator
        self.estimator_name = estimator_name

    def __call__(
        self, pc: int, predicted: bool, actual: bool, flags: Dict[str, bool]
    ) -> None:
        high = flags.get(self.estimator_name)
        if high is None:
            return
        self.accumulator.observe(
            low_confidence=not high, mispredicted=predicted != actual
        )


def misestimation_distance(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
    max_distance: int = 12,
) -> DistanceCurve:
    """Mis-estimation rate vs. distance since the last mis-estimation.

    The flatter this curve, the better the Bernoulli approximation
    behind boosting.
    """
    started = time.perf_counter()
    columns = misestimation_pairs(trace, predictor, estimator)
    if columns is not None:
        distance, misestimated = columns
        record_simulation(len(distance), time.perf_counter() - started)
        return _curve_from_columns(distance, misestimated, "mis-estimation", max_distance)
    observer = MisestimationDistanceObserver(DEFAULT_SLOT)
    measure(trace, predictor, {DEFAULT_SLOT: estimator}, observers=[observer])
    pairs = np.array(observer.pairs, dtype=np.int64).reshape(-1, 2)
    return _curve_from_columns(
        pairs[:, 0], pairs[:, 1].astype(bool), "mis-estimation", max_distance
    )


def measure_boosting(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
    ks: List[int] = (1, 2, 3),
) -> List[BoostingResult]:
    """Empirical boosted PVN of ``estimator`` for each window size."""
    started = time.perf_counter()
    counted = boosting_counts(trace, predictor, estimator, list(ks))
    if counted is not None:
        rows, lc_branches, lc_mispredictions, branches = counted
        record_simulation(branches, time.perf_counter() - started)
        base_pvn = lc_mispredictions / lc_branches if lc_branches else 0.0
        return [
            BoostingResult(
                k=k,
                base_pvn=base_pvn,
                events=events,
                events_with_misprediction=hits,
            )
            for k, events, hits in rows
        ]
    accumulator = BoostingAccumulator(list(ks))
    observer = BoostingObserver(accumulator, DEFAULT_SLOT)
    measure(trace, predictor, {DEFAULT_SLOT: estimator}, observers=[observer])
    return accumulator.results()
