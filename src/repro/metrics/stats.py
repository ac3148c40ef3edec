"""Statistical machinery for quadrant metrics.

Every paper metric (SENS/SPEC/PVP/PVN, accuracy) is a binomial
proportion over some sub-population of branches, so standard interval
machinery applies:

* :func:`wilson_interval` -- the Wilson score interval, well-behaved at
  the extreme proportions confidence estimators produce (PVP near 1);
* :func:`metric_interval` -- interval for a named metric of a
  :class:`~repro.metrics.quadrant.QuadrantCounts`, using the metric's
  actual denominator population.

These make the harness's comparisons honest: a 1-point PVN difference
on 40k branches is real; on 400 it is noise.
"""

from __future__ import annotations

import math
from typing import Tuple

from .quadrant import METRIC_POPULATIONS, QuadrantCounts

#: z for the conventional confidence levels.
Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_for(confidence: float) -> float:
    try:
        return Z_VALUES[confidence]
    except KeyError:
        raise ValueError(
            f"confidence must be one of {sorted(Z_VALUES)}, got {confidence}"
        ) from None


def wilson_interval(
    successes: float, trials: float, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    z = _z_for(confidence)
    proportion = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (proportion + z2 / (2.0 * trials)) / denominator
    margin = (
        z
        * math.sqrt(
            proportion * (1.0 - proportion) / trials + z2 / (4.0 * trials * trials)
        )
        / denominator
    )
    # the exact bounds at the extremes are 0/1; floating point can land
    # a hair inside them and exclude the point estimate itself
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return (low, high)


def metric_interval(
    quadrant: QuadrantCounts, metric: str, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson interval for one quadrant metric.

    Only meaningful on *raw counts* (a normalised table has lost its
    sample sizes, and this function will treat it as n <= 1).
    """
    try:
        numerator_name, denominator_name = METRIC_POPULATIONS[metric]
    except KeyError:
        raise ValueError(
            f"metric must be one of {sorted(METRIC_POPULATIONS)}, got {metric!r}"
        ) from None
    numerator = getattr(quadrant, numerator_name)
    denominator = getattr(quadrant, denominator_name)
    return wilson_interval(numerator, denominator, confidence)


def format_with_interval(
    quadrant: QuadrantCounts, metric: str, confidence: float = 0.95
) -> str:
    """'30.1% ±1.2%' style rendering for harness output.

    An undefined metric (empty denominator population, e.g. PVN when
    the estimator never emitted LC) renders as ``n/a``: there is no
    proportion to put an interval around.
    """
    low, high = metric_interval(quadrant, metric, confidence)  # checks the name
    value = getattr(quadrant, metric)
    if value is None:
        return "n/a"
    margin = max(value - low, high - value)
    return f"{value:.1%} ±{margin:.1%}"
