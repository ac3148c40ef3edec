"""Gshare predictor with speculative global-history update."""

from __future__ import annotations

from .base import BranchPredictor, Prediction
from .counters import CounterTable
from .history import GlobalHistory


class GsharePredictor(BranchPredictor):
    """McFarling's gshare: PHT indexed by PC XOR global history.

    The paper's first configuration: 4096 two-bit counters, with the
    history register updated *speculatively* at prediction time and
    repaired from the prediction's snapshot when a misprediction
    resolves (§3.1).
    """

    name = "gshare"

    def __init__(
        self,
        table_size: int = 4096,
        history_bits: int = None,
        counter_bits: int = 2,
        speculative_history: bool = True,
    ):
        self.table = CounterTable(table_size, bits=counter_bits)
        if history_bits is None:
            history_bits = max(1, table_size.bit_length() - 1)
        self.history = GlobalHistory(history_bits)
        self.counter_bits = counter_bits
        self.speculative_history = speculative_history

    def predict(self, pc: int) -> Prediction:
        history_value = self.history.value
        index = (pc ^ history_value) & self.table.index_mask
        counter = self.table.values[index]
        taken = counter >= self.table.midpoint
        prediction = Prediction(
            taken=taken,
            index=index,
            history=history_value,
            counters=(counter,),
            snapshot=history_value,
        )
        if self.speculative_history:
            self.history.push(taken)
        return prediction

    def resolve(self, pc: int, taken: bool, prediction: Prediction) -> None:
        self.table.update(prediction.index, taken)
        if self.speculative_history:
            if taken != prediction.taken:
                # squash repair: rewind past every speculative bit pushed
                # since this branch predicted, then insert the truth
                self.history.set(
                    GlobalHistory.extend(prediction.snapshot, taken, self.history.mask)
                )
        else:
            self.history.push(taken)

    def reset(self) -> None:
        self.table = CounterTable(self.table.size, bits=self.table.bits)
        self.history = GlobalHistory(self.history.bits)
