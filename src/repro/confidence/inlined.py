"""Which estimators the pipeline's hand-inlined run loop reproduces.

For a gshare with one estimator, the fused run loop
(``PipelineSimulator._run_fast``) keeps the estimator's state in
locals instead of calling its ``estimate``/``resolve`` per branch.  It
reproduces the estimators decided here: an exact-type
:class:`~repro.confidence.jrs.JRSEstimator` or
:class:`~repro.confidence.distance.MispredictionDistanceEstimator`, or
a :class:`~repro.confidence.boosting.BoostedEstimator` over one of
them.  Any other estimator takes the protocol calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .base import ConfidenceEstimator
from .boosting import BoostedEstimator
from .distance import MispredictionDistanceEstimator
from .jrs import JRSEstimator

#: Base estimator classes the inlined loops reproduce (exact types: a
#: subclass may override ``estimate``/``resolve``).
INLINED_ESTIMATORS = (JRSEstimator, MispredictionDistanceEstimator)


def inlined_parts(
    estimator: ConfidenceEstimator,
) -> Optional[Tuple[ConfidenceEstimator, int, int]]:
    """``(base, k, run)`` when the inlined loop reproduces ``estimator``,
    else ``None``.

    ``base`` is the JRS or distance estimator whose table or counter
    the loop holds, ``k`` the boost length and ``run`` the current run
    of consecutive low-confidence estimates of ``base``.  A plain
    estimator is its own base with ``k = 1``: its run reaches 1 exactly
    at each low-confidence estimate, and nothing stores it.  The loop
    writes ``run`` back to ``estimator._lc_run`` when ``base is not
    estimator``.
    """
    if type(estimator) is BoostedEstimator:
        base, k, run = estimator.base, estimator.k, estimator._lc_run
    else:
        base, k, run = estimator, 1, 0
    if type(base) not in INLINED_ESTIMATORS:
        return None
    return base, k, run
