"""Store-sets memory dependence predictor (Chrysos & Emer, ISCA 1998).

Both machine configurations in the paper "use store-sets to manage load
speculation": loads that have previously collided with a store are made to
wait for that store instead of issuing speculatively.

Structure:

- **SSIT** (store-set ID table): PC-indexed, maps static loads and stores
  to a store-set ID.  Tagless, power-of-two sized.
- **LFST** (last fetched store table): per store-set ID, the most recently
  dispatched in-flight store belonging to the set.

Training happens on memory-ordering violations; the baseline machine trains
from LQ search, the NLQ machine trains through the SPCT (which recovers the
conflicting store's PC from the load's address).  Store-set merging follows
the original paper: the two PCs adopt the smaller of their existing set IDs.
The SSIT is cyclically cleared to undo stale serializations.
"""

from __future__ import annotations

_INVALID = -1


class StoreSets:
    """Store-sets predictor with cyclic clearing."""

    __slots__ = (
        "_ssit",
        "_ssit_mask",
        "_lfst",
        "_lfst_entries",
        "_next_ssid",
        "_clear_interval",
        "_accesses_since_clear",
    )

    def __init__(self, ssit_entries: int = 16384, lfst_entries: int = 1024,
                 clear_interval: int = 400_000) -> None:
        if ssit_entries & (ssit_entries - 1):
            raise ValueError("ssit_entries must be a power of two")
        self._ssit = [_INVALID] * ssit_entries
        self._ssit_mask = ssit_entries - 1
        self._lfst: dict[int, int] = {}
        self._lfst_entries = lfst_entries
        self._next_ssid = 0
        self._clear_interval = clear_interval
        self._accesses_since_clear = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._ssit_mask

    def clear(self) -> None:
        """Cyclic clearing: forget all sets (stale dependences decay)."""
        self._ssit = [_INVALID] * (self._ssit_mask + 1)
        self._lfst.clear()
        self._accesses_since_clear = 0

    # -- dispatch-time queries -------------------------------------------------
    #
    # Each counts an access towards the cyclic clear and inlines
    # ``_index``: they run once per dispatched load or store.

    def load_dependence(self, load_pc: int) -> int | None:
        """The in-flight store seq this load must wait for, if any."""
        self._accesses_since_clear += 1
        if self._accesses_since_clear >= self._clear_interval:
            self.clear()
        ssid = self._ssit[(load_pc >> 2) & self._ssit_mask]
        if ssid == _INVALID:
            return None
        return self._lfst.get(ssid)

    def store_dispatched(self, store_pc: int, seq: int) -> int | None:
        """Register a dispatching store.

        Returns the seq of an older same-set store it should be ordered
        behind (store-store ordering within a set), or None.
        """
        self._accesses_since_clear += 1
        if self._accesses_since_clear >= self._clear_interval:
            self.clear()
        ssid = self._ssit[(store_pc >> 2) & self._ssit_mask]
        if ssid == _INVALID:
            return None
        previous = self._lfst.get(ssid)
        self._lfst[ssid] = seq
        return previous

    def store_done(self, store_pc: int, seq: int) -> None:
        """Remove a completed/squashed store from the LFST if still current."""
        ssid = self._ssit[(store_pc >> 2) & self._ssit_mask]
        if ssid != _INVALID and self._lfst.get(ssid) == seq:
            del self._lfst[ssid]

    # -- violation training ------------------------------------------------------

    def train(self, load_pc: int, store_pc: int) -> None:
        """A load at ``load_pc`` collided with a store at ``store_pc``."""
        li, si = self._index(load_pc), self._index(store_pc)
        load_ssid, store_ssid = self._ssit[li], self._ssit[si]
        if load_ssid == _INVALID and store_ssid == _INVALID:
            ssid = self._next_ssid % self._lfst_entries
            self._next_ssid += 1
            self._ssit[li] = ssid
            self._ssit[si] = ssid
        elif load_ssid == _INVALID:
            self._ssit[li] = store_ssid
        elif store_ssid == _INVALID:
            self._ssit[si] = load_ssid
        else:
            winner = min(load_ssid, store_ssid)
            self._ssit[li] = winner
            self._ssit[si] = winner
