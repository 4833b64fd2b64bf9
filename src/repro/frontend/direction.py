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


class Bimodal:
    """PC-indexed table of 2-bit saturating counters."""

    __slots__ = ("_mask", "_table")

    def __init__(self, entries: int = 8192) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._table = [1] * entries  # weakly not-taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        counter = self._table[i]
        self._table[i] = _UP[counter] if taken else _DOWN[counter]


class Gshare:
    """Global-history-xor-PC indexed table of 2-bit counters."""

    __slots__ = ("_mask", "_table", "_history", "_history_mask")

    def __init__(self, entries: int = 8192, history_bits: int = 12) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._table = [1] * entries
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        counter = self._table[i]
        self._table[i] = _UP[counter] if taken else _DOWN[counter]
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class HybridPredictor:
    """McFarling-style chooser between bimodal and gshare components.

    ``predict`` returns the chosen direction; ``update`` trains both
    components and moves the chooser toward whichever component was right.
    """

    __slots__ = ("bimodal", "gshare", "_chooser", "_mask", "lookups", "mispredictions")

    def __init__(self, entries: int = 8192, history_bits: int = 12) -> None:
        self.bimodal = Bimodal(entries)
        self.gshare = Gshare(entries, history_bits)
        self._chooser = [1] * entries  # <2 prefers bimodal, >=2 prefers gshare
        self._mask = entries - 1
        self.lookups = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        if self._chooser[(pc >> 2) & self._mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict ``pc``, then train with the actual outcome.

        Returns True when the prediction was *correct*.  The component
        predict/update steps are inlined over the component tables (this
        runs once per dynamic branch).
        """
        self.lookups += 1
        bimodal = self.bimodal
        gshare = self.gshare
        pc_index = pc >> 2
        bi_i = pc_index & bimodal._mask
        bimodal_counter = bimodal._table[bi_i]
        bimodal_pred = bimodal_counter >= 2
        gs_i = (pc_index ^ gshare._history) & gshare._mask
        gshare_counter = gshare._table[gs_i]
        gshare_pred = gshare_counter >= 2
        i = pc_index & self._mask
        prediction = gshare_pred if self._chooser[i] >= 2 else bimodal_pred
        if bimodal_pred != gshare_pred:
            if gshare_pred == taken:
                self._chooser[i] = _UP[self._chooser[i]]
            else:
                self._chooser[i] = _DOWN[self._chooser[i]]
        if taken:
            bimodal._table[bi_i] = _UP[bimodal_counter]
            gshare._table[gs_i] = _UP[gshare_counter]
            gshare._history = ((gshare._history << 1) | 1) & gshare._history_mask
        else:
            bimodal._table[bi_i] = _DOWN[bimodal_counter]
            gshare._table[gs_i] = _DOWN[gshare_counter]
            gshare._history = (gshare._history << 1) & gshare._history_mask
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1
        return correct

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.lookups if self.lookups else 0.0
