"""Design-space sweeps for threshold-based estimators (Figures 3-5,
Table 4).

Both the JRS estimator and the misprediction-distance estimator
classify a branch by comparing a counter value against a threshold,
and *the counter's update is threshold-independent*.  One simulation
pass can therefore serve every threshold at once: record, per branch,
the counter value consulted and whether the prediction was correct;
any threshold's quadrant table is then a partial sum over that
(value, correctness) histogram.  This turns the paper's
thresholds x table-sizes design-space plots from dozens of slow
simulations into one pass per table size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..engine import distance_value_counts, jrs_value_counts
from ..metrics.quadrant import QuadrantCounts
from ..predictors.base import BranchPredictor
from ..predictors.counters import CounterTable


@dataclass(frozen=True)
class SweepPoint:
    """One (threshold, quadrant) point of a sweep line."""

    threshold: int
    quadrant: QuadrantCounts


@dataclass(frozen=True)
class SweepLine:
    """One line of a design-space figure (e.g. one MDC table size)."""

    label: str
    points: Tuple[SweepPoint, ...]

    def point(self, threshold: int) -> SweepPoint:
        for point in self.points:
            if point.threshold == threshold:
                return point
        raise KeyError(f"no threshold {threshold} in sweep {self.label!r}")


class ValueHistogram:
    """(counter value, prediction correct) counts for one configuration.

    ``quadrant(threshold)`` classifies value >= threshold as high
    confidence, exactly as the threshold estimators do.
    """

    def __init__(self, max_value: int):
        self.max_value = max_value
        self.correct = [0] * (max_value + 1)
        self.incorrect = [0] * (max_value + 1)

    def record(self, value: int, prediction_correct: bool) -> None:
        value = min(value, self.max_value)
        if prediction_correct:
            self.correct[value] += 1
        else:
            self.incorrect[value] += 1

    def quadrant(self, threshold: int) -> QuadrantCounts:
        c_hc = sum(self.correct[threshold:]) if threshold <= self.max_value else 0
        i_hc = sum(self.incorrect[threshold:]) if threshold <= self.max_value else 0
        return QuadrantCounts(
            c_hc=c_hc,
            i_hc=i_hc,
            c_lc=sum(self.correct) - c_hc,
            i_lc=sum(self.incorrect) - i_hc,
        )

    def sweep(self, thresholds: Sequence[int], label: str) -> SweepLine:
        return SweepLine(
            label=label,
            points=tuple(
                SweepPoint(threshold=t, quadrant=self.quadrant(t))
                for t in thresholds
            ),
        )


def jrs_value_histogram(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    table_size: int = 4096,
    counter_bits: int = 4,
    enhanced: bool = True,
) -> ValueHistogram:
    """One pass of the JRS MDC machinery recording consulted values.

    Mirrors :class:`~repro.confidence.jrs.JRSEstimator` (including the
    enhanced prediction-bit index) but defers thresholding to the
    histogram.
    """
    counts = jrs_value_counts(trace, predictor, table_size, counter_bits, enhanced)
    if counts is not None:
        histogram = ValueHistogram(max_value=(1 << counter_bits) - 1)
        histogram.correct, histogram.incorrect = counts
        return histogram
    table = CounterTable(table_size, bits=counter_bits, initial=0)
    histogram = ValueHistogram(max_value=table.max_value)
    values = table.values
    index_mask = table.index_mask
    max_value = table.max_value
    predict = predictor.predict
    resolve = predictor.resolve
    for pc, taken in trace:
        prediction = predict(pc)
        history = prediction.history
        if enhanced:
            history = (history << 1) | (1 if prediction.taken else 0)
        index = (pc ^ history) & index_mask
        value = values[index]
        correct = prediction.taken == taken
        histogram.record(value, correct)
        resolve(pc, taken, prediction)
        if correct:
            if value < max_value:
                values[index] = value + 1
        else:
            values[index] = 0
    return histogram


def distance_value_histogram(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    max_distance: int = 64,
) -> ValueHistogram:
    """One pass of the misprediction-distance counter (Table 4 sweeps).

    ``quadrant(t)`` of the result corresponds to the paper's
    "Distance > t-1" rows (high confidence iff distance >= t).
    """
    counts = distance_value_counts(trace, predictor, max_distance)
    if counts is not None:
        histogram = ValueHistogram(max_value=max_distance)
        histogram.correct, histogram.incorrect = counts
        return histogram
    histogram = ValueHistogram(max_value=max_distance)
    distance = 0
    predict = predictor.predict
    resolve = predictor.resolve
    for pc, taken in trace:
        correct_prediction = None
        prediction = predict(pc)
        correct_prediction = prediction.taken == taken
        histogram.record(distance, correct_prediction)
        distance += 1
        resolve(pc, taken, prediction)
        if not correct_prediction:
            distance = 0
    return histogram


def average_sweep_lines(lines: Sequence[SweepLine], label: str) -> SweepLine:
    """Average the same sweep measured on several benchmarks
    (paper-style: mean of normalised quadrants, then ratios)."""
    if not lines:
        raise ValueError("no sweep lines to average")
    thresholds = [point.threshold for point in lines[0].points]
    for line in lines:
        if [point.threshold for point in line.points] != thresholds:
            raise ValueError("sweep lines have mismatched thresholds")
    from ..metrics.aggregate import average_quadrants

    points = []
    for position, threshold in enumerate(thresholds):
        quadrant = average_quadrants(
            [line.points[position].quadrant for line in lines]
        )
        points.append(SweepPoint(threshold=threshold, quadrant=quadrant))
    return SweepLine(label=label, points=tuple(points))

