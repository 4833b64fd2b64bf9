"""Set-associative cache timing model.

Values live in :class:`~repro.memsys.memimg.MemoryImage`; caches model
*timing* state only (which lines are resident).  LRU replacement, write-back
write-allocate.  The L1D is bank-interleaved by line address; bank
conflicts are arbitrated by the pipeline's issue stage, and the SSQ's
per-bank forwarding buffers ask :meth:`MemoryHierarchy.load_bank
<repro.memsys.hierarchy.MemoryHierarchy.load_bank>` for a line's bank.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    latency: int = 2
    banks: int = 1

    def __post_init__(self) -> None:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"{self.name}: set count {sets} not a power of two")
        if self.banks & (self.banks - 1):
            raise ValueError(f"{self.name}: banks must be a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (see :mod:`repro.fingerprint`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CacheConfig":
        return cls(**payload)  # type: ignore[arg-type]


class Cache:
    """One level of set-associative cache with LRU replacement."""

    __slots__ = (
        "config",
        "_sets",
        "_stamp",
        "_line_bytes",
        "_set_mask",
        "_assoc",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[dict[int, int]] = [dict() for _ in range(config.sets)]
        self._stamp = 0
        # Geometry cached flat: the access path runs once per simulated
        # memory operation and must not chase config attributes.
        self._line_bytes = config.line_bytes
        self._set_mask = config.sets - 1
        self._assoc = config.assoc

    def access(self, addr: int) -> bool:
        """Access ``addr``: update LRU, fill on miss.  Returns hit."""
        line = addr // self._line_bytes
        ways = self._sets[line & self._set_mask]
        stamp = self._stamp + 1
        self._stamp = stamp
        if line in ways:
            ways[line] = stamp
            return True
        if len(ways) >= self._assoc:
            victim = min(ways, key=ways.get)  # true LRU
            del ways[victim]
        ways[line] = stamp
        return False

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` (coherence).  Returns present."""
        line = addr // self._line_bytes
        ways = self._sets[line & self._set_mask]
        if line in ways:
            del ways[line]
            return True
        return False
