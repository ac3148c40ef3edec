"""Pipeline backend registry: the execution model as a dimension.

The speculative *front end* -- fetch, branch prediction, confidence
tagging, wrong-path execution, fetch gating and dual-path forking, and
both engines -- lives in :class:`~repro.pipeline.core.PipelineSimulator`
and is shared by every backend.  A **backend** supplies the execution
model behind it: how instructions occupy the in-flight window, when
branches resolve, and how squash recovery restores machine state.

Backends plug in by subclassing :class:`PipelineSimulator` and
overriding the timing hooks it changes among ``_dispatch``,
``_retire_entry`` and ``_rollback`` (their docstrings there define the
surface).  Both engines -- the fused ``run()`` loop and the reference
one -- call the hooks at the same points with the same arguments: a
backend that overrides ``_dispatch`` gets one in-flight entry per
instruction from both, and only one that does not (the in-order one)
has its non-branch instructions grouped by the fused engine.  Two ship
with the repository:

``inorder``
    :class:`~repro.pipeline.core.PipelineSimulator` itself -- the
    5-stage in-order core every paper figure was validated on.  It is
    the default everywhere and its output is golden: the CI smoke legs
    byte-compare it against the committed report.

``ooo``
    :class:`~repro.pipeline.ooo.OutOfOrderSimulator` -- the R10K-style
    out-of-order core (register rename + active list, issue queue,
    configurable in-flight window, squash-on-mispredict).

The backend name travels with :class:`~repro.harness.experiments.Scale`
through the CLI (``--backend``), the artifact cache keys, the warm-up
planner, segment snapshots and checkpoint fingerprints -- sweepable
exactly like predictor choice.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Type

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..predictors.base import BranchPredictor
from .config import PipelineConfig
from .core import PipelineSimulator
from .decode import DecodedProgram
from .ooo import OutOfOrderSimulator

#: Name of the backend used when none is requested.
DEFAULT_BACKEND = "inorder"


#: Registered backend name -> simulator class.
BACKENDS: Dict[str, Type[PipelineSimulator]] = {
    "inorder": PipelineSimulator,
    "ooo": OutOfOrderSimulator,
}

#: Stable listing order for CLI choices and documentation.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(BACKENDS))


def normalize_backend(backend: Optional[str]) -> str:
    """Map ``None``/empty to the default and validate the name."""
    name = backend or DEFAULT_BACKEND
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown pipeline backend {name!r} (known: {known})")
    return name


def create_simulator(
    program: Program,
    predictor: BranchPredictor,
    backend: Optional[str] = None,
    config: Optional[PipelineConfig] = None,
    estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
    decoded: Optional[DecodedProgram] = None,
    fast: Optional[bool] = None,
) -> PipelineSimulator:
    """Construct a simulator for ``backend`` (default ``inorder``)."""
    simulator_class = BACKENDS[normalize_backend(backend)]
    return simulator_class(
        program,
        predictor,
        config=config,
        estimators=estimators,
        decoded=decoded,
        fast=fast,
    )
