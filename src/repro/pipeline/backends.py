"""Pipeline backend registry: the execution model as a dimension.

The speculative *front end* -- fetch, branch prediction, confidence
tagging, wrong-path execution, fetch gating and dual-path forking, and
both engines -- lives in :class:`~repro.pipeline.core.PipelineSimulator`
and is shared by every backend.  A **backend** supplies the execution
model behind it: how instructions occupy the in-flight window, when
branches resolve, and how squash recovery restores machine state.

Backends plug in by subclassing :class:`PipelineSimulator` and
overriding the timing hooks it changes among ``_dispatch``,
``_checkpoint`` and ``_rollback`` (their docstrings there define the
surface).  No hook runs at retire.  Only the reference engine calls the hooks.  The fused
``run()`` loop carries each shipped backend's timing model inline
instead: it groups the in-order backend's non-branch instructions and
gives the out-of-order one an entry per instruction.  Building a class
whose hooks are neither backend's for the fused engine raises
``TypeError`` (it runs with ``fast=False``).  A new backend therefore
adds its model to both engines: the hooks, which are its oracle, and
an inline copy in ``PipelineSimulator._run_fast``, which the
fused-vs-reference tests hold to them.  Two ship with the repository:

``inorder``
    :class:`~repro.pipeline.core.PipelineSimulator` itself -- the
    5-stage in-order core every paper figure was validated on.  It is
    the default everywhere and its output is golden: the CI smoke legs
    byte-compare it against the committed report.

``ooo``
    :class:`~repro.pipeline.ooo.OutOfOrderSimulator` -- the R10K-style
    out-of-order core (one ready cycle per architectural register,
    active list, issue queue, configurable in-flight window, and a
    checkpoint of the ready table per mispredicted branch, restored at
    its squash).

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
