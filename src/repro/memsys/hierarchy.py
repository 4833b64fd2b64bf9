"""Two-level memory hierarchy with the paper's latencies.

Section 4: "The instruction and data caches are 32KB, 2-way set-associative,
2-cycle access.  The L2 is 2MB, 8-way set-associative, 15 cycle access.
Memory latency is 150 cycles."  The L1D is 2-way bank-interleaved to supply
two load ports (Figure 2); a separate read/write port serves store retirement
and load re-execution.  Only the data side is modelled: no instruction cache
is built, so none is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsys.cache import Cache, CacheConfig


@dataclass(frozen=True, slots=True)
class HierarchyConfig:
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 2, latency=2, banks=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 2 * 1024 * 1024, 8, latency=15)
    )
    memory_latency: int = 150

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (see :mod:`repro.fingerprint`)."""
        return {
            "l1d": self.l1d.to_dict(),
            "l2": self.l2.to_dict(),
            "memory_latency": self.memory_latency,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "HierarchyConfig":
        return cls(
            l1d=CacheConfig.from_dict(payload["l1d"]),  # type: ignore[arg-type]
            l2=CacheConfig.from_dict(payload["l2"]),  # type: ignore[arg-type]
            memory_latency=payload["memory_latency"],  # type: ignore[arg-type]
        )


class MemoryHierarchy:
    """Timing-only hierarchy: returns access latencies, tracks residency."""

    __slots__ = (
        "config",
        "l1d",
        "l2",
        "_l1d_latency",
        "_l2_latency",
        "_memory_latency",
        "_l1d_line_bytes",
        "_l1d_bank_mask",
    )

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        # Latencies and bank geometry cached flat for the per-access path.
        self._l1d_latency = self.config.l1d.latency
        self._l2_latency = self.config.l2.latency
        self._memory_latency = self.config.memory_latency
        self._l1d_line_bytes = self.config.l1d.line_bytes
        self._l1d_bank_mask = self.config.l1d.banks - 1

    def load_access(self, addr: int) -> int:
        """Latency of a data-side access starting at the L1D.

        The one access path: a load's execution, a load's re-execution and
        a store's commit all update residency through it (once per
        simulated memory op, so in one call frame).
        """
        latency = self._l1d_latency
        if self.l1d.access(addr):
            return latency
        latency += self._l2_latency
        if self.l2.access(addr):
            return latency
        return latency + self._memory_latency

    def invalidate(self, addr: int) -> None:
        """Coherence invalidation from another thread/agent."""
        self.l1d.invalidate(addr)
        self.l2.invalidate(addr)

    def load_bank(self, addr: int) -> int:
        """The L1D bank a line-interleaved access to ``addr`` goes to."""
        return (addr // self._l1d_line_bytes) & self._l1d_bank_mask
