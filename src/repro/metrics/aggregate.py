"""Cross-benchmark aggregation of quadrant tables.

The paper is explicit about its averaging discipline (§3.2): *"when
computing the average for the PVP, we take the mean for C_HC and C_LC
and compute C_HC/(C_HC+C_LC), rather than averaging the existing
PVPs"*.  :func:`average_quadrants` implements exactly that -- average
the four normalised quadrant frequencies across benchmarks, then let
the metric properties take their ratios.  :func:`metric_means` (plain
per-benchmark metric averaging) is provided for the averaging-method
ablation bench.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .quadrant import QuadrantCounts


def average_quadrants(quadrants: Sequence[QuadrantCounts]) -> QuadrantCounts:
    """Paper-style average: mean of normalised quadrant frequencies."""
    if not quadrants:
        raise ValueError("cannot average an empty set of quadrant tables")
    normalized = [quadrant.normalized() for quadrant in quadrants]
    count = len(normalized)
    return QuadrantCounts(
        c_hc=sum(quadrant.c_hc for quadrant in normalized) / count,
        i_hc=sum(quadrant.i_hc for quadrant in normalized) / count,
        c_lc=sum(quadrant.c_lc for quadrant in normalized) / count,
        i_lc=sum(quadrant.i_lc for quadrant in normalized) / count,
    )


def metric_means(
    quadrants: Sequence[QuadrantCounts],
) -> Dict[str, Optional[float]]:
    """Arithmetic mean of each per-benchmark metric (ablation only),
    over the benchmarks where it is defined; ``None`` where it is
    defined on none."""
    if not quadrants:
        raise ValueError("cannot average an empty set of quadrant tables")
    means: Dict[str, Optional[float]] = {}
    for name in ("sens", "spec", "pvp", "pvn"):
        values = [getattr(quadrant, name) for quadrant in quadrants]
        values = [value for value in values if value is not None]
        means[name] = sum(values) / len(values) if values else None
    return means
