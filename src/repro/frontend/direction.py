"""Branch direction predictors.

A classic hybrid (a.k.a. "combining" or McFarling) predictor: a bimodal
table captures per-branch bias, a gshare table captures correlated history,
and a chooser table of 2-bit counters picks between them per branch.
All tables use saturating 2-bit counters.
"""

from __future__ import annotations


#: A 2-bit saturating counter's next value, indexed by its current value
#: (tables, not functions: the hybrid predictor updates three per branch).
_UP = (1, 2, 3, 3)
_DOWN = (0, 0, 1, 2)


class HybridPredictor:
    """McFarling-style chooser between bimodal and gshare tables.

    The bimodal table is indexed by PC, the gshare table by PC xor global
    history, and the chooser by PC (<2 prefers bimodal, >=2 gshare).  Every
    counter starts weakly not-taken.
    """

    __slots__ = ("_bimodal", "_gshare", "_chooser", "_mask", "_history", "_history_mask")

    def __init__(self, entries: int = 8192, history_bits: int = 12) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._bimodal = [1] * entries
        self._gshare = [1] * entries
        self._chooser = [1] * entries
        self._mask = entries - 1
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict ``pc``, then train with the actual outcome.

        Returns True when the prediction was *correct*.  Both components
        train on every branch; the chooser moves toward whichever component
        was right when they disagree.  This runs once per dynamic branch.
        """
        mask = self._mask
        pc_index = pc >> 2
        i = pc_index & mask
        bimodal = self._bimodal
        bimodal_counter = bimodal[i]
        bimodal_pred = bimodal_counter >= 2
        gshare = self._gshare
        gs_i = (pc_index ^ self._history) & mask
        gshare_counter = gshare[gs_i]
        gshare_pred = gshare_counter >= 2
        chooser = self._chooser
        prediction = gshare_pred if chooser[i] >= 2 else bimodal_pred
        if bimodal_pred != gshare_pred:
            if gshare_pred == taken:
                chooser[i] = _UP[chooser[i]]
            else:
                chooser[i] = _DOWN[chooser[i]]
        if taken:
            bimodal[i] = _UP[bimodal_counter]
            gshare[gs_i] = _UP[gshare_counter]
            self._history = ((self._history << 1) | 1) & self._history_mask
        else:
            bimodal[i] = _DOWN[bimodal_counter]
            gshare[gs_i] = _DOWN[gshare_counter]
            self._history = (self._history << 1) & self._history_mask
        return prediction == taken
