"""Store sequence Bloom filter (SSBF) organizations.

The SSBF is "a small, tagless table indexed by low-order address bits --
similar to the SPCT -- in which each entry holds the SSN of the last retired
store to write to any partially matching address" (section 3).  The term
Bloom filter is used in the sense that aliasing can only produce *false
positives*: an entry is always an upper bound on the SSN of the last
conflicting store, so a negative filter test unambiguously means no
conflict.

Organizations from the Figure 8 sensitivity study:

===============  ============================================================
``SimpleSSBF``   single table, 128/512/2048 entries, 8-byte granularity
``4-byte``       ``SimpleSSBF(granularity=4)`` -- immune to sub-quad false
                 sharing at double the entry count for the same coverage
``DualBloomSSBF``  two 512-entry tables, the second indexed by the *next*
                 9 address bits; a load re-executes only if it "hits" in
                 both, i.e. the effective entry is the minimum of the two
``InfiniteSSBF`` unbounded, exact 4-byte granularity (no aliasing at all)
``BankedSSBF``   the NLQ-SM organization (section 3.2): one bank per word
                 in a cache line; stores write one bank, coherence
                 invalidations write the indexed entry of *every* bank
===============  ============================================================

All entries start at 0, which is below every real SSN (SSNs start at 1), so
a cleared filter predicts "no conflict" everywhere -- the safe state, since
a cleared filter always accompanies an empty pipeline (section 3.6).
"""

from __future__ import annotations

import abc


class SSBFBase(abc.ABC):
    """Interface shared by all SSBF organizations."""

    __slots__ = ()

    @abc.abstractmethod
    def update(self, addr: int, size: int, ssn: int) -> None:
        """Record that a store with ``ssn`` wrote ``size`` bytes at ``addr``."""

    @abc.abstractmethod
    def lookup(self, addr: int, size: int) -> int:
        """Upper bound on the SSN of the last store conflicting with this
        ``size``-byte access at ``addr`` (0 if provably none)."""

    @abc.abstractmethod
    def flash_clear(self) -> None:
        """Reset all entries (SSN wrap-around drain)."""

    def invalidate_line(self, line_addr: int, line_bytes: int, ssn: int) -> None:
        """Coherence invalidation covering a whole line (section 3.2).

        The default implementation conservatively updates every word of the
        line; :class:`BankedSSBF` does this with a single banked write.
        """
        for offset in range(0, line_bytes, 8):
            self.update(line_addr + offset, 8, ssn)


class SimpleSSBF(SSBFBase):
    """Single tagless direct-indexed table."""

    __slots__ = ("entries", "granularity", "_shift", "_mask", "_table")

    def __init__(self, entries: int = 512, granularity: int = 8) -> None:
        if entries & (entries - 1) or entries <= 0:
            raise ValueError("entries must be a power of two")
        if granularity not in (4, 8):
            raise ValueError("granularity must be 4 or 8")
        self.entries = entries
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._mask = entries - 1
        self._table = [0] * entries

    def update(self, addr: int, size: int, ssn: int) -> None:
        # Flat single-entry fast path: this runs once per retired store.
        table = self._table
        first = (addr >> self._shift) & self._mask
        if ssn > table[first]:
            table[first] = ssn
        if size > self.granularity:
            second = ((addr + 4) >> self._shift) & self._mask
            if second != first and ssn > table[second]:
                table[second] = ssn

    def lookup(self, addr: int, size: int) -> int:
        # Flat single-entry fast path: this runs once per filter test.
        table = self._table
        value = table[(addr >> self._shift) & self._mask]
        if size > self.granularity:
            second = table[((addr + 4) >> self._shift) & self._mask]
            if second > value:
                return second
        return value

    def flash_clear(self) -> None:
        self._table = [0] * self.entries


class DualBloomSSBF(SSBFBase):
    """Two tables indexed by disjoint address bit fields.

    Aliasing in one table rarely coincides with aliasing in the other, so
    taking the minimum of the two entries tightens the upper bound while
    remaining conservative (each entry individually is an upper bound).
    """

    __slots__ = ("entries", "granularity", "_shift", "_bits", "_mask", "_low", "_high")

    def __init__(self, entries: int = 512, granularity: int = 8) -> None:
        if entries & (entries - 1) or entries <= 0:
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._bits = entries.bit_length() - 1
        self._mask = entries - 1
        self._low = [0] * entries
        self._high = [0] * entries

    def _index_pairs(self, addr: int, size: int) -> tuple[tuple[int, int], ...]:
        word = addr >> self._shift
        low = word & self._mask
        high = (word >> self._bits) & self._mask
        if size > self.granularity:
            word2 = (addr + 4) >> self._shift
            if word2 != word:
                return ((low, high), (word2 & self._mask, (word2 >> self._bits) & self._mask))
        return ((low, high),)

    def update(self, addr: int, size: int, ssn: int) -> None:
        for low, high in self._index_pairs(addr, size):
            if ssn > self._low[low]:
                self._low[low] = ssn
            if ssn > self._high[high]:
                self._high[high] = ssn

    def lookup(self, addr: int, size: int) -> int:
        return max(
            min(self._low[low], self._high[high])
            for low, high in self._index_pairs(addr, size)
        )

    def flash_clear(self) -> None:
        self._low = [0] * self.entries
        self._high = [0] * self.entries


class InfiniteSSBF(SSBFBase):
    """Alias-free reference organization (exact 4-byte granularity)."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[int, int] = {}

    def _words(self, addr: int, size: int) -> tuple[int, ...]:
        base = addr & ~3
        return (base, base + 4) if size == 8 else (base,)

    def update(self, addr: int, size: int, ssn: int) -> None:
        table = self._table
        for word in self._words(addr, size):
            if ssn > table.get(word, 0):
                table[word] = ssn

    def lookup(self, addr: int, size: int) -> int:
        table = self._table
        return max(table.get(word, 0) for word in self._words(addr, size))

    def flash_clear(self) -> None:
        self._table.clear()


class BankedSSBF(SSBFBase):
    """NLQ-SM organization: one bank per word in a cache line.

    Store updates write-enable a single bank (the word the store touched);
    coherence invalidations write the indexed entry of every bank, which
    covers the whole line in one access (section 3.2).
    """

    __slots__ = (
        "granularity",
        "line_bytes",
        "banks",
        "entries",
        "_per_bank_mask",
        "_word_shift",
        "_line_shift",
        "_banks",
    )

    def __init__(self, entries: int = 512, line_bytes: int = 64, granularity: int = 8) -> None:
        self.granularity = granularity
        self.line_bytes = line_bytes
        self.banks = line_bytes // granularity
        if entries % self.banks:
            raise ValueError("entries must divide evenly across banks")
        per_bank = entries // self.banks
        if per_bank & (per_bank - 1):
            raise ValueError("per-bank entry count must be a power of two")
        self.entries = entries
        self._per_bank_mask = per_bank - 1
        self._word_shift = granularity.bit_length() - 1
        self._line_shift = line_bytes.bit_length() - 1
        self._banks = [[0] * per_bank for _ in range(self.banks)]

    def _locate(self, addr: int) -> tuple[int, int]:
        bank = (addr >> self._word_shift) & (self.banks - 1)
        index = (addr >> self._line_shift) & self._per_bank_mask
        return bank, index

    def update(self, addr: int, size: int, ssn: int) -> None:
        bank, index = self._locate(addr)
        if ssn > self._banks[bank][index]:
            self._banks[bank][index] = ssn
        if size > self.granularity:
            bank2, index2 = self._locate(addr + 4)
            if (bank2, index2) != (bank, index) and ssn > self._banks[bank2][index2]:
                self._banks[bank2][index2] = ssn

    def lookup(self, addr: int, size: int) -> int:
        bank, index = self._locate(addr)
        value = self._banks[bank][index]
        if size > self.granularity:
            bank2, index2 = self._locate(addr + 4)
            value = max(value, self._banks[bank2][index2])
        return value

    def invalidate_line(self, line_addr: int, line_bytes: int, ssn: int) -> None:
        _, index = self._locate(line_addr)
        for bank in self._banks:
            if ssn > bank[index]:
                bank[index] = ssn

    def flash_clear(self) -> None:
        per_bank = self._per_bank_mask + 1
        self._banks = [[0] * per_bank for _ in range(self.banks)]


def make_ssbf(kind: str = "simple", entries: int = 512, granularity: int = 8) -> SSBFBase:
    """Factory covering the Figure 8 configuration names.

    ``kind`` is one of ``simple``, ``dual``, ``infinite``, ``banked``.
    """
    if kind == "simple":
        return SimpleSSBF(entries=entries, granularity=granularity)
    if kind == "dual":
        return DualBloomSSBF(entries=entries, granularity=granularity)
    if kind == "infinite":
        return InfiniteSSBF()
    if kind == "banked":
        return BankedSSBF(entries=entries, granularity=granularity)
    raise ValueError(f"unknown SSBF kind {kind!r}")
