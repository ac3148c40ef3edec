"""Trace-driven measurement: predictor + estimators -> quadrant tables.

Replays a committed branch stream through one branch predictor while
any number of confidence estimators assess each prediction, exactly the
measurement the paper describes in §2: *"we can measure C_HC, I_HC,
C_LC and I_LC using a branch predictor for each branch and concurrently
estimate the confidence"*.

Running all estimators of an experiment in one pass keeps every
estimator's view identical (same predictor state stream) and amortises
the predictor simulation, which dominates the cost.  Passes of several
experiments over one columnar trace share more: the vector engine
memoises each fresh predictor's scan and each estimator's flag column
on the trace, so a second bank pass over the same (workload,
predictor) pair scans nothing again.

Two engines produce bit-identical results: the scalar per-branch loop
(:func:`measure`) and the vectorized columnar path
(:func:`measure_bank_vectorized`, built on
:mod:`repro.engine.vector`).  :func:`measure_bank` dispatches between
them automatically -- columnar traces take the vector path when every
piece has a kernel, and anything unsupported falls back to the scalar
loop, wholesale or per estimator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..confidence.base import ConfidenceEstimator
from ..metrics.quadrant import QuadrantCounts
from ..obs.registry import REGISTRY
from ..predictors.base import BranchPredictor
from .columnar import ColumnarTrace
from .vector import (
    UnsupportedVectorization,
    estimator_flags,
    fallback_flags,
    predict_columns,
    supports_estimator,
    supports_predictor,
)

#: Registry metric names every *measurement replay* reports into.
#: ``sim.branches`` counts branches actually re-measured this process
#: (cache hits replay nothing and so count nothing).
BRANCHES_METRIC = "sim.branches"
REPLAY_TIMER = "sim.replay"

#: Workload trace *generation* is not replay: it is accounted
#: separately so branches/s reflects measurement throughput only.
TRACE_BRANCHES_METRIC = "sim.trace_branches"
TRACE_TIMER = "sim.tracegen"

#: How many branch measurements each engine served: branches processed
#: by vector kernels vs. branches that fell back to the scalar loop
#: inside an otherwise-vectorized bank.
VECTOR_BRANCHES_METRIC = "sim.vector_branches"
SCALAR_FALLBACK_METRIC = "sim.scalar_fallback_branches"

#: Cycle-level pipeline simulation is accounted apart from trace
#: replay: ``sim.pipeline_branches`` counts branches *fetched* by the
#: pipeline (wrong path included -- that is the work the simulator
#: does), and ``sim.pipeline`` accumulates simulator wall time.  The
#: ``repro bench`` pipeline section derives branches/s from these.
PIPELINE_BRANCHES_METRIC = "sim.pipeline_branches"
PIPELINE_TIMER = "sim.pipeline"

#: How many one-pass estimator-bank measurements ran this session.
BANK_PASSES_METRIC = "session.bank_passes"


def record_simulation(branches: int, seconds: float) -> None:
    """Count one measurement replay's work into the process registry."""
    REGISTRY.count(BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(REPLAY_TIMER, seconds)


def record_trace_generation(branches: int, seconds: float) -> None:
    """Count one workload trace *generation* into the process registry.

    Kept separate from :func:`record_simulation` so replay throughput
    (``sim.branches`` / ``sim.replay``) is never inflated by the
    one-time cost of producing the trace being replayed.
    """
    REGISTRY.count(TRACE_BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(TRACE_TIMER, seconds)


def record_pipeline_simulation(branches: int, seconds: float) -> None:
    """Count one cycle-level pipeline run into the process registry."""
    REGISTRY.count(PIPELINE_BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(PIPELINE_TIMER, seconds)


#: Observer signature: (pc, predicted_taken, actual_taken,
#: {estimator name: high_confidence}).  Called once per branch, after
#: estimation but before any resolve -- prediction-time information only.
Observer = Callable[[int, bool, bool, Dict[str, bool]], None]


@dataclass(frozen=True)
class MeasurementResult:
    """Quadrant tables and predictor statistics for one measured run."""

    predictor_name: str
    branches: int
    mispredictions: int
    quadrants: Dict[str, QuadrantCounts] = field(default_factory=dict)

    @property
    def accuracy(self) -> Optional[float]:
        """Prediction accuracy, or ``None`` for an empty branch stream."""
        correct = self.branches - self.mispredictions
        return correct / self.branches if self.branches else None

    @property
    def misprediction_rate(self) -> Optional[float]:
        return self.mispredictions / self.branches if self.branches else None

    def quadrant(self, estimator_name: str) -> QuadrantCounts:
        try:
            return self.quadrants[estimator_name]
        except KeyError:
            raise KeyError(
                f"estimator {estimator_name!r} was not measured in this run"
                f" (has: {', '.join(self.quadrants) or 'none'})"
            ) from None


def measure(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
    observers: Sequence[Observer] = (),
) -> MeasurementResult:
    """Measure every estimator in ``estimators`` over ``trace``.

    The predictor and estimators are consumed (their state evolves);
    pass fresh instances for independent measurements.
    """
    quadrants = {name: QuadrantCounts() for name in estimators}
    estimator_items = list(estimators.items())
    predict = predictor.predict
    predictor_resolve = predictor.resolve
    branches = 0
    mispredictions = 0
    started = time.perf_counter()

    for pc, taken in trace:
        prediction = predict(pc)
        assessments = [
            (name, estimator, estimator.estimate(pc, prediction))
            for name, estimator in estimator_items
        ]
        if observers:
            flags = {
                name: assessment.high_confidence
                for name, __, assessment in assessments
            }
            for observer in observers:
                observer(pc, prediction.taken, taken, flags)
        correct = prediction.taken == taken
        branches += 1
        if not correct:
            mispredictions += 1
        predictor_resolve(pc, taken, prediction)
        for name, estimator, assessment in assessments:
            estimator.resolve(pc, prediction, taken, assessment)
            quadrants[name].record(correct, assessment.high_confidence)

    record_simulation(branches=branches, seconds=time.perf_counter() - started)
    return MeasurementResult(
        predictor_name=predictor.name,
        branches=branches,
        mispredictions=mispredictions,
        quadrants=quadrants,
    )


def measure_accuracy(
    trace: Iterable[Tuple[int, bool]], predictor: BranchPredictor
) -> MeasurementResult:
    """Predictor-only measurement (no estimators attached)."""
    return measure(trace, predictor, {})


def measure_bank_vectorized(
    trace: ColumnarTrace,
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
    observers: Sequence[Observer] = (),
) -> MeasurementResult:
    """One-pass estimator bank over a columnar trace via array kernels.

    Bit-identical to :func:`measure_bank` over the same branch stream:
    identical :class:`QuadrantCounts` (including float representation),
    misprediction counts, and observer callbacks in trace order.
    Raises :class:`UnsupportedVectorization` -- before consuming any
    state -- when the predictor has no vector scan; estimators without
    a kernel are driven per branch via :func:`fallback_flags` and
    accounted under ``sim.scalar_fallback_branches``.
    """
    if not isinstance(trace, ColumnarTrace):
        raise UnsupportedVectorization(type(trace).__name__)
    if not supports_predictor(predictor):
        raise UnsupportedVectorization(type(predictor).__name__)
    started = time.perf_counter()
    columns = predict_columns(trace, predictor)
    branch_count = columns.branches
    vector_branches = branch_count
    fallback_branches = 0
    flag_columns: Dict[str, object] = {}
    for name, estimator in estimators.items():
        if supports_estimator(estimator):
            flag_columns[name] = estimator_flags(columns, estimator)
            vector_branches += branch_count
        else:
            flag_columns[name] = fallback_flags(columns, estimator)
            fallback_branches += branch_count
    if observers:
        names = list(estimators)
        flag_lists = [flag_columns[name].tolist() for name in names]
        pcs = columns.pcs.tolist()
        predicted = columns.pred.tolist()
        actual = columns.taken.tolist()
        for i in range(branch_count):
            flags = {name: flag_lists[j][i] for j, name in enumerate(names)}
            for observer in observers:
                observer(pcs[i], predicted[i], actual[i], flags)
    correct = columns.correct
    quadrants = {}
    for name in estimators:
        high = flag_columns[name]
        quadrants[name] = QuadrantCounts(
            c_hc=float(np.count_nonzero(correct & high)),
            i_hc=float(np.count_nonzero(~correct & high)),
            c_lc=float(np.count_nonzero(correct & ~high)),
            i_lc=float(np.count_nonzero(~correct & ~high)),
        )
    record_simulation(branches=branch_count, seconds=time.perf_counter() - started)
    REGISTRY.count(VECTOR_BRANCHES_METRIC, vector_branches)
    if fallback_branches:
        REGISTRY.count(SCALAR_FALLBACK_METRIC, fallback_branches)
    REGISTRY.count(BANK_PASSES_METRIC)
    return MeasurementResult(
        predictor_name=predictor.name,
        branches=branch_count,
        mispredictions=columns.mispredictions,
        quadrants=quadrants,
    )


def measure_bank(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
    observers: Sequence[Observer] = (),
) -> MeasurementResult:
    """One-pass estimator-bank measurement, counted in
    ``session.bank_passes``.

    Identical to :func:`measure` -- estimators never perturb the
    predictor or each other, so co-measuring more of them changes no
    per-estimator quadrant.

    Columnar traces dispatch to :func:`measure_bank_vectorized`;
    predictors without a vector scan (e.g. speculation wrapper
    predictors) silently take the scalar loop, which iterates columnar
    traces just as well.  Whether a trace is columnar is the caller's
    choice (the ``REPRO_VECTOR`` setting is consulted where the harness picks it).
    """
    if isinstance(trace, ColumnarTrace):
        try:
            return measure_bank_vectorized(
                trace, predictor, estimators, observers=observers
            )
        except UnsupportedVectorization:
            pass
    result = measure(trace, predictor, estimators, observers)
    REGISTRY.count(BANK_PASSES_METRIC)
    return result
