"""Confidence estimators: the paper's four families plus its two
contributions (misprediction distance, boosting)."""

from .base import Assessment, ConfidenceEstimator
from .boosting import (
    BoostedEstimator,
    BoostingAccumulator,
    BoostingResult,
    boosted_pvn,
)
from .distance import MispredictionDistanceEstimator
from .jrs import CombiningJRSEstimator, JRSEstimator
from .pattern import PatternHistoryEstimator, lick_confident_patterns
from .saturating import McFarlingVariant, SaturatingCountersEstimator
from .static import (
    StaticEstimator,
    profile_confident_sites,
    profile_site_accuracy,
)

__all__ = [
    "Assessment",
    "ConfidenceEstimator",
    "BoostedEstimator",
    "BoostingAccumulator",
    "BoostingResult",
    "boosted_pvn",
    "MispredictionDistanceEstimator",
    "CombiningJRSEstimator",
    "JRSEstimator",
    "PatternHistoryEstimator",
    "lick_confident_patterns",
    "McFarlingVariant",
    "SaturatingCountersEstimator",
    "StaticEstimator",
    "profile_confident_sites",
    "profile_site_accuracy",
]
