"""McFarling combining predictor (gshare + bimodal + meta chooser)."""

from __future__ import annotations

from .base import BranchPredictor, Prediction
from .counters import CounterTable
from .history import GlobalHistory


class McFarlingPredictor(BranchPredictor):
    """Two-component combining predictor (McFarling 1993).

    A gshare component and a PC-indexed bimodal component are both
    consulted on every branch; a PC-indexed 2-bit meta table selects
    which direction to follow.  At resolution both components train on
    the outcome, and the meta counter is nudged toward whichever
    component was right *when they disagreed* -- otherwise it is left
    alone, exactly the paper's description in §3.3.1.

    ``Prediction.counters`` carries ``(gshare, bimodal, meta)`` raw
    counter values so the saturating-counters confidence estimator can
    implement its Both-Strong / Either-Strong variants, and
    ``Prediction.index`` carries the gshare component index.
    """

    name = "mcfarling"

    def __init__(
        self,
        table_size: int = 4096,
        history_bits: int = None,
        counter_bits: int = 2,
        speculative_history: bool = True,
    ):
        self.gshare_table = CounterTable(table_size, bits=counter_bits)
        self.bimodal_table = CounterTable(table_size, bits=counter_bits)
        self.meta_table = CounterTable(table_size, bits=counter_bits)
        if history_bits is None:
            history_bits = max(1, table_size.bit_length() - 1)
        self.history = GlobalHistory(history_bits)
        self.counter_bits = counter_bits
        self.speculative_history = speculative_history

    def predict(self, pc: int) -> Prediction:
        history_value = self.history.value
        gshare_index = (pc ^ history_value) & self.gshare_table.index_mask
        pc_index = pc & self.bimodal_table.index_mask
        gshare_counter = self.gshare_table.values[gshare_index]
        bimodal_counter = self.bimodal_table.values[pc_index]
        meta_counter = self.meta_table.values[pc_index]
        use_gshare = meta_counter >= self.meta_table.midpoint
        if use_gshare:
            taken = gshare_counter >= self.gshare_table.midpoint
        else:
            taken = bimodal_counter >= self.bimodal_table.midpoint
        prediction = Prediction(
            taken=taken,
            index=gshare_index,
            history=history_value,
            counters=(gshare_counter, bimodal_counter, meta_counter),
            snapshot=history_value,
        )
        if self.speculative_history:
            self.history.push(taken)
        return prediction

    def resolve(self, pc: int, taken: bool, prediction: Prediction) -> None:
        gshare_counter, bimodal_counter, __ = prediction.counters
        gshare_was_right = (
            gshare_counter >= self.gshare_table.midpoint
        ) == taken
        bimodal_was_right = (
            bimodal_counter >= self.bimodal_table.midpoint
        ) == taken
        pc_index = pc & self.bimodal_table.index_mask
        if gshare_was_right != bimodal_was_right:
            # re-enforce the component that got this branch right
            self.meta_table.update(pc_index, gshare_was_right)
        self.gshare_table.update(prediction.index, taken)
        self.bimodal_table.update(pc_index, taken)
        if self.speculative_history:
            if taken != prediction.taken:
                self.history.set(
                    GlobalHistory.extend(prediction.snapshot, taken, self.history.mask)
                )
        else:
            self.history.push(taken)

    def reset(self) -> None:
        size = self.gshare_table.size
        bits = self.gshare_table.bits
        self.gshare_table = CounterTable(size, bits=bits)
        self.bimodal_table = CounterTable(size, bits=bits)
        self.meta_table = CounterTable(size, bits=bits)
        self.history = GlobalHistory(self.history.bits)
