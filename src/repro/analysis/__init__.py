"""Temporal analyses: distance curves, clustering, design-space sweeps."""

from .clustering import (
    BoostingObserver,
    MisestimationDistanceObserver,
    measure_boosting,
    misestimation_distance,
)
from .distance import (
    DistanceBucket,
    DistanceCurve,
    clustering_divergence,
    distance_pdf,
    geometric_reference_pdf,
    perceived_distance_curve,
    precise_distance_curve,
    render_curves,
)
from .sweeps import (
    SweepLine,
    SweepPoint,
    ValueHistogram,
    average_sweep_lines,
    distance_value_histogram,
    jrs_value_histogram,
)

__all__ = [
    "BoostingObserver",
    "MisestimationDistanceObserver",
    "measure_boosting",
    "misestimation_distance",
    "DistanceBucket",
    "DistanceCurve",
    "clustering_divergence",
    "distance_pdf",
    "geometric_reference_pdf",
    "perceived_distance_curve",
    "precise_distance_curve",
    "render_curves",
    "SweepLine",
    "SweepPoint",
    "ValueHistogram",
    "average_sweep_lines",
    "distance_value_histogram",
    "jrs_value_histogram",
]
