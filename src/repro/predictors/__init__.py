"""Branch-prediction substrate: counters, histories and the three
predictors the paper evaluates (gshare, McFarling, SAg) plus bimodal."""

from typing import Callable, Dict

from .base import BranchPredictor, Prediction
from .bimodal import BimodalPredictor
from .counters import (
    CounterTable,
    SaturatingCounter,
    counter_is_strong,
    counter_predicts_taken,
)
from .gshare import GsharePredictor
from .history import GlobalHistory, LocalHistoryTable
from .mcfarling import McFarlingPredictor
from .sag import SAgPredictor

#: Factories for the paper's three predictor configurations plus bimodal.
PREDICTOR_FACTORIES: Dict[str, Callable[[], BranchPredictor]] = {
    "gshare": GsharePredictor,
    "mcfarling": McFarlingPredictor,
    "sag": SAgPredictor,
    "bimodal": BimodalPredictor,
}


def make_predictor(name: str, **kwargs) -> BranchPredictor:
    """Instantiate a predictor by name with paper-default geometry."""
    try:
        factory = PREDICTOR_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; "
            f"available: {', '.join(sorted(PREDICTOR_FACTORIES))}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "BranchPredictor",
    "Prediction",
    "BimodalPredictor",
    "CounterTable",
    "SaturatingCounter",
    "counter_is_strong",
    "counter_predicts_taken",
    "GsharePredictor",
    "GlobalHistory",
    "LocalHistoryTable",
    "McFarlingPredictor",
    "SAgPredictor",
    "PREDICTOR_FACTORIES",
    "make_predictor",
]
