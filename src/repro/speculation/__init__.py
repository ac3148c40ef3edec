"""Speculation-control applications built on confidence estimation."""

from .dualpath import (
    EagerComparison,
    EagerOutOfOrderSimulator,
    EagerPipelineSimulator,
    compare_eager_execution,
)
from .gating import (
    GatedOutOfOrderSimulator,
    GatedPipelineSimulator,
    GatingComparison,
    compare_gating,
)
from .inversion import (
    InversionResult,
    InvertingPredictor,
    evaluate_inversion,
)

__all__ = [
    "EagerComparison",
    "EagerOutOfOrderSimulator",
    "EagerPipelineSimulator",
    "compare_eager_execution",
    "GatedOutOfOrderSimulator",
    "GatedPipelineSimulator",
    "GatingComparison",
    "compare_gating",
    "InversionResult",
    "InvertingPredictor",
    "evaluate_inversion",
]
