"""Diagnostic-test metrics for confidence estimation (paper §1.1, §2)."""

from .aggregate import average_quadrants, metric_means
from .parametric import (
    ParametricCurve,
    figure1_curve,
    figure1_family,
    pvn_from,
    pvp_from,
    quadrant_from_rates,
)
from .quadrant import QuadrantCounts
from .stats import (
    format_with_interval,
    metric_interval,
    wilson_interval,
)

__all__ = [
    "average_quadrants",
    "metric_means",
    "ParametricCurve",
    "figure1_curve",
    "figure1_family",
    "pvn_from",
    "pvp_from",
    "quadrant_from_rates",
    "QuadrantCounts",
    "format_with_interval",
    "metric_interval",
    "wilson_interval",
]
