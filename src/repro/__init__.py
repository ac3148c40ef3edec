"""Confidence Estimation for Speculation Control -- a full reproduction.

Reproduces Klauser, Grunwald, Manne & Pleszkun, *"Confidence Estimation
for Speculation Control"* (ISCA 1998 / CU-CS-854-98) as a Python
library:

* :mod:`repro.isa` -- a mini RISC ISA with assembler and simulator;
* :mod:`repro.workloads` -- synthetic SPECint95-like benchmark programs;
* :mod:`repro.predictors` -- gshare, McFarling, SAg, bimodal;
* :mod:`repro.confidence` -- JRS, saturating counters, history pattern,
  static, misprediction distance, and boosting estimators;
* :mod:`repro.metrics` -- the SENS/SPEC/PVP/PVN diagnostic-test metrics;
* :mod:`repro.engine` -- trace-driven measurement;
* :mod:`repro.pipeline` -- a speculative 5-stage pipeline simulator;
* :mod:`repro.analysis` -- misprediction clustering and design sweeps;
* :mod:`repro.speculation` -- pipeline gating, dual-path eager
  execution and branch inversion applications;
* :mod:`repro.harness` -- one runnable experiment per paper
  table/figure.

Quickstart::

    from repro.engine import workload_run, measure
    from repro.predictors import GsharePredictor
    from repro.confidence import JRSEstimator

    trace = workload_run("gcc").trace
    predictor = GsharePredictor()
    result = measure(trace, predictor, {"jrs": JRSEstimator(threshold=15)})
    print(result.quadrants["jrs"].summary())
"""

from .confidence import (
    BoostedEstimator,
    ConfidenceEstimator,
    JRSEstimator,
    McFarlingVariant,
    MispredictionDistanceEstimator,
    PatternHistoryEstimator,
    SaturatingCountersEstimator,
    StaticEstimator,
)
from .engine import measure, measure_accuracy, trace_branches, workload_run
from .metrics import QuadrantCounts, average_quadrants
from .pipeline import PipelineConfig, PipelineSimulator
from .predictors import (
    BimodalPredictor,
    BranchPredictor,
    GsharePredictor,
    McFarlingPredictor,
    Prediction,
    SAgPredictor,
    make_predictor,
)
from .workloads import SUITE, BranchTrace, generate_program, get_profile

__version__ = "1.0.0"

__all__ = [
    "BoostedEstimator",
    "ConfidenceEstimator",
    "JRSEstimator",
    "McFarlingVariant",
    "MispredictionDistanceEstimator",
    "PatternHistoryEstimator",
    "SaturatingCountersEstimator",
    "StaticEstimator",
    "measure",
    "measure_accuracy",
    "trace_branches",
    "workload_run",
    "QuadrantCounts",
    "average_quadrants",
    "PipelineConfig",
    "PipelineSimulator",
    "BimodalPredictor",
    "BranchPredictor",
    "GsharePredictor",
    "McFarlingPredictor",
    "Prediction",
    "SAgPredictor",
    "make_predictor",
    "SUITE",
    "BranchTrace",
    "generate_program",
    "get_profile",
    "__version__",
]
