"""Branch target buffer.

A 2K-entry 2-way set-associative BTB with LRU replacement, as in the
paper's fetch unit.  In a trace-driven model the *target* is always known,
so what the BTB contributes is the extra misfetch class: a taken branch
whose target is not cached redirects the front end even when the direction
prediction was right.
"""

from __future__ import annotations


class BTB:
    """Tagged set-associative target buffer; stores only tags (targets are
    trace-known), so a hit means "target would have been available"."""

    __slots__ = ("_sets", "_assoc", "_table")

    def __init__(self, entries: int = 2048, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must divide evenly into ways")
        self._sets = entries // assoc
        if self._sets & (self._sets - 1):
            raise ValueError("set count must be a power of two")
        self._assoc = assoc
        # Each set is an LRU-ordered list of tags (most recent last).
        self._table: list[list[int]] = [[] for _ in range(self._sets)]

    def _locate(self, pc: int) -> tuple[list[int], int]:
        index = (pc >> 2) & (self._sets - 1)
        tag = pc >> 2
        return self._table[index], tag

    def lookup_and_update(self, pc: int) -> bool:
        """Probe for ``pc``; allocate/refresh the entry.  Returns hit."""
        ways, tag = self._locate(pc)
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        if len(ways) >= self._assoc:
            ways.pop(0)
        ways.append(tag)
        return False
