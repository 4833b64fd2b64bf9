"""Store PC table (SPCT).

Paper, section 2.2: the original non-associative LQ proposal cannot tell
*which* store triggered a re-execution flush, so it can only train
store-blind dependence predictors.  The SPCT overcomes this: "a small,
tagless table indexed by low-order address bits in which each entry
contains the PC of the last retired store to write to a matching address.
On a flush, the store PC is retrieved from the SPCT using the load
address" and used to train store-sets with a precise store-load pair.
"""

from __future__ import annotations

_NO_PC = -1


class SPCT:
    """Tagless address-indexed table of last-retired-store PCs."""

    __slots__ = ("_table", "_mask", "_shift")

    def __init__(self, entries: int = 512, granularity: int = 8) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        if granularity not in (4, 8):
            raise ValueError("granularity must be 4 or 8")
        self._table = [_NO_PC] * entries
        self._mask = entries - 1
        self._shift = granularity.bit_length() - 1

    def _index(self, addr: int) -> int:
        return (addr >> self._shift) & self._mask

    def record(self, addr: int, size: int, pc: int) -> None:
        """Note that a store at ``pc`` retired to ``addr``."""
        # ``_index`` inlined: this runs once per committed store.
        shift = self._shift
        self._table[(addr >> shift) & self._mask] = pc
        if size == 8 and shift == 2:
            # 4-byte granularity: an 8-byte store covers two entries.
            self._table[((addr + 4) >> shift) & self._mask] = pc

    def lookup(self, addr: int) -> int | None:
        """PC of the last retired store to a matching address, if any."""
        pc = self._table[self._index(addr)]
        return None if pc == _NO_PC else pc
