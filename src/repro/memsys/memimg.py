"""Sparse word-granularity functional memory image.

All functional memory state in the simulator -- the golden model, the
committed (data-cache) image, and the program-order image used by the
re-execution pipeline -- is a :class:`MemoryImage`.  Addresses are byte
addresses but storage is 4-byte words: every access in the IR is 4-byte
aligned and either 4 or 8 bytes wide, matching the paper's observation that
the SSBF tracks conflicts at 8-byte granularity and is therefore vulnerable
to "false sharing due to non-overlapping sub-quad writes".

Words absent from the image read as zero, so a fresh image is a zero-filled
address space.
"""

from __future__ import annotations

_WORD_MASK = 0xFFFF_FFFF


class MemoryImage:
    """A sparse map from 4-byte-aligned addresses to 32-bit words."""

    __slots__ = ("_words",)

    def __init__(self, initial: dict[int, int] | None = None) -> None:
        self._words: dict[int, int] = {}
        if initial:
            for addr, value in initial.items():
                self.write(addr, value & _WORD_MASK, 4)

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes (4 or 8) at 4-byte-aligned ``addr``."""
        words = self._words
        if size <= 4:
            return words.get(addr, 0)
        lo = words.get(addr, 0)
        hi = words.get(addr + 4, 0)
        return lo | (hi << 32)

    def write(self, addr: int, value: int, size: int) -> None:
        """Write ``size`` bytes (4 or 8) of ``value`` at aligned ``addr``."""
        words = self._words
        if size <= 4:
            words[addr] = value & _WORD_MASK
        else:
            words[addr] = value & _WORD_MASK
            words[addr + 4] = (value >> 32) & _WORD_MASK

    def copy(self) -> "MemoryImage":
        clone = MemoryImage()
        clone._words = dict(self._words)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        # Zero-valued words are equivalent to absent words.
        keys = set(self._words) | set(other._words)
        return all(self._words.get(k, 0) == other._words.get(k, 0) for k in keys)
