"""Store sequence numbering (paper sections 3 and 3.6).

Every dynamic store receives a monotonically increasing *store sequence
number* (SSN).  Only one global value needs to be explicitly represented --
``SSN_RETIRE``, the SSN of the last retired store; the SSN of any in-flight
store follows from its position in the store queue, and ``SSN_RENAME``
(the youngest store in the window) is ``SSN_RETIRE + SQ occupancy``.

Finite-width SSNs wrap.  The paper's policy (section 3.6): when
``SSN_RENAME`` would wrap, (i) drain the pipeline, (ii) flash-clear the
SSBF, (iii) flash-clear the IT if RLE is enabled, (iv) resume.  After a
drain no load's vulnerability range crosses the wrap point, so plain
magnitude comparison of stored SSNs is always unambiguous.  We exploit
exactly that invariant: SSNs here are plain integers that reset to zero at
each drain, and the drain bookkeeping (a full pipeline drain costs real
cycles) is charged by the timing model.  SSN value 0 is reserved to mean
"no store since the last clear", so real SSNs start at 1.

The paper measures that 16-bit SSNs (a drain every 64K stores) cost only
0.2% versus infinite-width SSNs; ``benchmarks/bench_ssn_width.py``
reproduces that experiment.
"""

from __future__ import annotations


class SSNState:
    """Global SSN counters plus the wrap/drain policy.

    Args:
        bits: SSN width in bits, or ``None`` for infinite (never drains).
    """

    __slots__ = ("bits", "wrap_limit", "retire", "rename", "drains")

    def __init__(self, bits: int | None = 16) -> None:
        if bits is not None and bits < 4:
            raise ValueError("SSN width below 4 bits would drain constantly")
        self.bits = bits
        self.wrap_limit = (1 << bits) if bits is not None else None
        self.retire = 0
        self.rename = 0
        self.drains = 0

    # -- dispatch / commit events ----------------------------------------------

    def dispatch_store(self) -> int:
        """Assign the next SSN to a dispatching store."""
        self.rename += 1
        return self.rename

    def retire_store(self) -> None:
        """A store wrote the data cache; SSN_RETIRE advances."""
        if self.retire >= self.rename:
            raise RuntimeError("retired more stores than dispatched")
        self.retire += 1

    def squash_to(self, surviving_stores: int) -> None:
        """Roll SSN_RENAME back after a flush.

        ``surviving_stores`` is the store-queue occupancy after the squash;
        squashed stores' SSNs are simply reused, which is safe because SSNs
        of in-flight stores are positional.
        """
        if surviving_stores < 0:
            raise ValueError("negative SQ occupancy")
        self.rename = self.retire + surviving_stores

    # -- wrap-around drains --------------------------------------------------------

    @property
    def wrap_pending(self) -> bool:
        """True when dispatch must stall for a drain before the next store."""
        return self.wrap_limit is not None and self.rename >= self.wrap_limit - 1

    def drain(self) -> None:
        """Complete a drain: pipeline is empty, counters reset.

        The caller must also flash-clear the SSBF (and the IT under RLE);
        :class:`repro.core.svw.SVWEngine` packages that.
        """
        if self.retire != self.rename:
            raise RuntimeError("drain with in-flight stores")
        self.retire = 0
        self.rename = 0
        self.drains += 1

    def __repr__(self) -> str:
        return f"SSNState(retire={self.retire}, rename={self.rename}, bits={self.bits})"
