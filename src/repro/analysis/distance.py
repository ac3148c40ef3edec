"""Misprediction-distance analysis (paper §4.1, Figures 6-9).

Given a pipeline run's distance counts, build "misprediction rate vs.
distance since the previous misprediction" curves -- the presentation
the paper prefers over Heil & Smith's PDF plot.  If branch outcomes
were independent the curve would be flat at the average misprediction
rate; clustering shows up as elevated rates at small distances.

Two distance definitions (both recorded by the pipeline):

* **precise** -- branches since the last *actually mispredicted* branch
  was fetched.  Only a simulator (or oracle) knows this at fetch time.
* **perceived** -- branches since the last misprediction was *detected*
  (resolved).  This is what real hardware can know, and it is skewed
  toward larger distances by the resolution delay.

Each curve can be computed over **all** fetched branches or only the
**committed** ones (the trace view Heil & Smith used); the committed
precise curve is recomputed from scratch over the committed sub-stream
so that distances are counted in committed branches, exactly as a
trace-based analysis would.

A run's :class:`~repro.pipeline.records.DistanceCounts` (its result's
``distances``) holds all four populations as exact per-distance
counts, so a curve only cuts them at ``max_distance``: the last bucket
absorbs the tail.  A rate over an empty population is ``None``, not a
made-up 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..pipeline.records import DistanceCounts, Histogram, distance_histogram


@dataclass(frozen=True)
class DistanceBucket:
    """Aggregate at one distance (the last bucket absorbs the tail)."""

    distance: int
    branches: int
    mispredictions: int

    @property
    def misprediction_rate(self) -> Optional[float]:
        """``None`` when no branch falls at this distance."""
        return self.mispredictions / self.branches if self.branches else None


@dataclass(frozen=True)
class DistanceCurve:
    """Misprediction rate as a function of misprediction distance."""

    label: str
    buckets: Tuple[DistanceBucket, ...]
    total_branches: int
    total_mispredictions: int

    @property
    def average_rate(self) -> Optional[float]:
        """The flat line the curve would be without clustering
        (``None`` with no branches)."""
        return (
            self.total_mispredictions / self.total_branches
            if self.total_branches
            else None
        )

    def rate_at(self, distance: int) -> Optional[float]:
        index = min(distance, len(self.buckets) - 1)
        return self.buckets[index].misprediction_rate

    @property
    def clustering_ratio(self) -> float:
        """rate(distance 0..1) / average rate; > 1 means clustered."""
        near = [bucket for bucket in self.buckets[:2] if bucket.branches]
        if not near or not self.average_rate:
            return 0.0
        branches = sum(bucket.branches for bucket in near)
        misses = sum(bucket.mispredictions for bucket in near)
        return (misses / branches) / self.average_rate if branches else 0.0


def _clamped(counts: Sequence[int], max_distance: int) -> List[int]:
    """``counts`` cut to ``max_distance + 1`` buckets, the last one
    absorbing every larger distance."""
    head = list(counts[:max_distance])
    head += [0] * (max_distance - len(head))
    head.append(sum(counts[max_distance:]))
    return head


def _curve_from_counts(
    histogram: Histogram, label: str, max_distance: int
) -> DistanceCurve:
    """The curve of exact per-distance ``(branches, mispredictions)``
    counts, clamped at ``max_distance``."""
    branches, misses = (_clamped(counts, max_distance) for counts in histogram)
    buckets = tuple(
        DistanceBucket(distance=d, branches=branches[d], mispredictions=misses[d])
        for d in range(max_distance + 1)
    )
    return DistanceCurve(
        label=label,
        buckets=buckets,
        total_branches=sum(branches),
        total_mispredictions=sum(misses),
    )


def _curve_from_columns(
    distance: np.ndarray, flags: np.ndarray, label: str, max_distance: int
) -> DistanceCurve:
    """Bucket ``distance`` (clamped to ``max_distance``) and count the
    branches and the ``flags``-marked ones in each bucket."""
    return _curve_from_counts(
        distance_histogram(distance, flags), label, max_distance
    )


def _population(all_branches: Histogram, committed: Histogram, population: str):
    if population == "all":
        return all_branches
    if population == "committed":
        return committed
    raise ValueError("population must be 'all' or 'committed'")


def precise_distance_curve(
    counts: DistanceCounts,
    population: str = "all",
    max_distance: int = 15,
) -> DistanceCurve:
    """Figures 6/7: precise distances, over all or committed branches
    (committed distances are recounted in committed branches)."""
    histogram = _population(
        counts.precise_all, counts.precise_committed, population
    )
    return _curve_from_counts(histogram, f"precise/{population}", max_distance)


def perceived_distance_curve(
    counts: DistanceCounts,
    population: str = "all",
    max_distance: int = 15,
) -> DistanceCurve:
    """Figures 8/9: distances from the last *detected* misprediction."""
    histogram = _population(
        counts.perceived_all, counts.perceived_committed, population
    )
    return _curve_from_counts(histogram, f"perceived/{population}", max_distance)


def distance_pdf(curve: DistanceCurve) -> List[float]:
    """Heil & Smith's presentation: P[distance = d] over mispredictions.

    The probability distribution of the misprediction distance (how
    many branches sit between consecutive mispredictions), computed
    from the same bucket populations as the rate curve: a misprediction
    recorded at distance d is exactly a gap of length d.
    """
    total = curve.total_mispredictions
    if not total:
        return [0.0] * len(curve.buckets)
    return [bucket.mispredictions / total for bucket in curve.buckets]


def geometric_reference_pdf(curve: DistanceCurve) -> List[float]:
    """The PDF a *non-clustered* branch stream would show.

    If branch outcomes were independent Bernoulli trials with the
    curve's average misprediction rate p, the misprediction distance
    would be geometric: P[d] = (1-p)^d * p (the paper's §4.1 remark).
    The final bucket absorbs the tail mass so the reference sums to 1
    over the same support as :func:`distance_pdf`.
    """
    p = curve.average_rate
    depth = len(curve.buckets)
    if p is None or not 0.0 < p <= 1.0 or depth == 0:
        return [0.0] * depth
    pdf = [((1.0 - p) ** d) * p for d in range(depth - 1)]
    pdf.append(1.0 - sum(pdf))  # tail bucket
    return pdf


def clustering_divergence(curve: DistanceCurve) -> float:
    """Total-variation distance between the measured distance PDF and
    the geometric (independence) reference -- 0 means no clustering."""
    measured = distance_pdf(curve)
    reference = geometric_reference_pdf(curve)
    return 0.5 * sum(abs(m - r) for m, r in zip(measured, reference))


def _rate(rate: Optional[float]) -> str:
    return "n/a".rjust(7) if rate is None else f"{rate:7.2%}"


def render_curves(curves: Sequence[DistanceCurve], width: int = 8) -> str:
    """Text rendering of several curves side by side (an empty bucket's
    rate reads ``n/a``)."""
    if not curves:
        return ""
    lines: List[str] = []
    header = "dist".ljust(6) + "".join(
        curve.label.rjust(width + 12) for curve in curves
    )
    lines.append(header)
    depth = max(len(curve.buckets) for curve in curves)
    for distance in range(depth):
        cells = []
        for curve in curves:
            if distance < len(curve.buckets):
                bucket = curve.buckets[distance]
                cells.append(
                    f"{_rate(bucket.misprediction_rate)} (n={bucket.branches:6d})"
                )
            else:
                cells.append("".rjust(width + 12))
        tag = f">={distance}" if distance == depth - 1 else f"{distance}"
        lines.append(tag.ljust(6) + "".join(cell.rjust(width + 12) for cell in cells))
    lines.append(
        "avg".ljust(6)
        + "".join(_rate(curve.average_rate).rjust(width + 12) for curve in curves)
    )
    return "\n".join(lines)
