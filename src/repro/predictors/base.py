"""Branch-predictor interface shared by the trace engine and pipeline.

The protocol mirrors how hardware interleaves prediction and update:

* :meth:`BranchPredictor.predict` is called at fetch.  Predictors with
  speculative history push the *predicted* direction immediately and
  record enough state in the returned :class:`Prediction` to repair
  themselves later.
* :meth:`BranchPredictor.resolve` is called once, in program order,
  when the branch resolves (trace engine: immediately after predict;
  pipeline: ``resolve_latency`` cycles later).  Squashed wrong-path
  branches are *never* resolved, so their table updates never happen --
  exactly the commit-time-update discipline of sim-outorder.
* On a misprediction, ``resolve`` restores the speculative history from
  the prediction's snapshot before folding in the actual outcome, which
  also wipes any wrong-path bits younger branches pushed.

Confidence estimators consume the :class:`Prediction` record: it
carries the consulted counter values and the history used, the two
pieces of "existing processor state" the paper's inexpensive
estimators tap.

``predict``, ``resolve`` and ``reset`` are the whole interface.  The
pipeline's fused loop inlines speculative-history gshare and McFarling
and calls ``predict``/``resolve`` for every other predictor.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple


class Prediction:
    """Everything a single branch prediction exposes to the outside.

    Attributes
    ----------
    taken:
        Predicted direction.
    index:
        Table index the direction counter was read from (predictor
        specific; McFarling stores the gshare component's index).
    history:
        History register value *used for this prediction* (global for
        gshare/McFarling, the per-branch local history for SAg).
    counters:
        Raw values of every direction counter consulted, in predictor
        specific order.  The saturating-counters confidence estimator
        reads these.
    snapshot:
        Pre-branch speculative-history value, used for repair; ``None``
        for non-speculative predictors.
    app_state:
        Free slot for wrapper predictors (e.g. the inversion wrapper)
        to carry per-prediction bookkeeping; unused by the core.
    """

    __slots__ = ("taken", "index", "history", "counters", "snapshot", "app_state")

    def __init__(
        self,
        taken: bool,
        index: int,
        history: int,
        counters: Tuple[int, ...],
        snapshot: Optional[int] = None,
    ):
        self.taken = taken
        self.index = index
        self.history = history
        self.counters = counters
        self.snapshot = snapshot
        self.app_state = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Prediction(taken={self.taken}, index={self.index}, "
            f"history={self.history}, counters={self.counters})"
        )


class BranchPredictor(abc.ABC):
    """Abstract conditional-branch direction predictor."""

    #: Short name used in tables and experiment output.
    name: str = "predictor"
    #: Bits per direction counter (estimators need this to test "strong").
    counter_bits: int = 2

    @abc.abstractmethod
    def predict(self, pc: int) -> Prediction:
        """Predict the branch at ``pc`` (called at fetch)."""

    @abc.abstractmethod
    def resolve(self, pc: int, taken: bool, prediction: Prediction) -> None:
        """Learn the actual outcome (called in order at resolution)."""

    def reset(self) -> None:
        """Restore power-on state (re-creating the object also works)."""
        raise NotImplementedError
