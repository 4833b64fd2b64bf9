"""The SVW filter engine (paper section 3).

SVW associates with each dynamic load a *store vulnerability window*: the
window of older stores the load optimization has made it vulnerable to.
Operationally a load's SVW field holds "the SSN of the youngest older store
to which the load is **not** vulnerable".  The re-execution filter test is

    ``SSBF[ld.addr] > ld.SVW``  -->  re-execute

A positive test means a store the load was vulnerable to *probably* wrote a
conflicting address (Bloom aliasing can only raise SSBF entries).  A
negative test unambiguously means no conflict occurred, so the load can
skip re-execution and commit.

Per-optimization SVW establishment (sections 3.1-3.4):

=========  ================================================================
NLQ-LS     ``ld.SVW = SSN_RETIRE`` at dispatch; store-load forwarding
           shrinks the window: ``ld.SVW = st.SSN`` (the ``+UPD`` variant)
NLQ-SM     same dispatch rule; an invalidation acts as an asynchronous
           store and writes ``SSN_RENAME + 1`` into every bank at its line
SSQ        identical to NLQ-LS (but SVW is an *enabler*, not an enhancer:
           without it SSQ re-executes every load)
RLE        an eliminated load is vulnerable from the original load onward:
           ``ld.SVW = IT-entry.SSN`` (captured at IT-entry creation)
=========  ================================================================

The processor applies the dispatch rule inline (``ld.SVW = ssn.retire``)
and calls :meth:`SVWEngine.svw_after_forward` for ``+UPD``, so this module
holds the one copy of the ``+UPD`` rule the simulator and the Figure 4
worked example share.

Composition (section 3.5): a load subject to several optimizations is
vulnerable to the largest window, ``SVW = MIN(svw_a, svw_b)``.  The
processor does not apply MIN: an RLE-eliminated load takes the IT entry's
SSN as its whole window, even when SSQ or NLQ also marks it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

from repro.core.ssbf import SSBFBase, make_ssbf
from repro.core.ssn import SSNState


@dataclass(frozen=True, slots=True)
class SVWConfig:
    """Configuration of the SVW mechanism.

    Attributes:
        enabled: Master switch; disabled means every marked load re-executes.
        update_on_forward: Apply the "update SVW on store-forward"
            optimization (the paper's ``+UPD`` configurations).
        ssn_bits: SSN width; ``None`` = infinite (no wrap drains).
        ssbf_kind: ``simple`` / ``dual`` / ``infinite`` / ``banked``.
        ssbf_entries: Entry count for table organizations.
        ssbf_granularity: Conflict-tracking granularity in bytes (8 default;
            4 removes sub-quadword false sharing).
        speculative_updates: Stores update the SSBF as they pass the SVW
            stage, before older loads have finished re-executing (section
            3.6).  Disabling forces atomic update order, which lengthens
            the serialization the filter exists to remove.
    """

    enabled: bool = True
    update_on_forward: bool = True
    ssn_bits: int | None = 16
    ssbf_kind: str = "simple"
    ssbf_entries: int = 512
    ssbf_granularity: int = 8
    speculative_updates: bool = True

    def build_ssbf(self) -> SSBFBase:
        return make_ssbf(self.ssbf_kind, self.ssbf_entries, self.ssbf_granularity)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (see :mod:`repro.fingerprint`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SVWConfig":
        return cls(**payload)  # type: ignore[arg-type]


class SVWEngine:
    """Run-time SVW state: SSN counters, the SSBF, and the filter test."""

    __slots__ = ("config", "ssn", "ssbf", "on_drain", "weak_upd")

    def __init__(self, config: SVWConfig | None = None) -> None:
        self.config = config or SVWConfig()
        self.ssn = SSNState(self.config.ssn_bits)
        self.ssbf = self.config.build_ssbf()
        #: Test-only planted mutant for the differential-fuzz smoke gate:
        #: ``SVW_FUZZ_WEAK_UPD=1`` weakens the ``+UPD`` rule to widen a
        #: forwarding load's SVW to ``SSN_RENAME`` instead of the supplying
        #: store's SSN, silently excusing loads from re-execution they owe.
        #: Never set outside the fuzz-smoke harness.
        self.weak_upd = os.environ.get("SVW_FUZZ_WEAK_UPD", "") == "1"
        #: Hooks run at wrap-around drains (e.g. RLE flash-clears its IT).
        self.on_drain: list[Callable[[], None]] = []

    # -- load-side interface -----------------------------------------------------

    def svw_after_forward(self, current_svw: int, store_ssn: int) -> int:
        """Shrink the window after store-load forwarding (``+UPD``).

        Reading from the in-flight store with ``store_ssn`` makes the load
        invulnerable to that store and everything older.  The processor
        calls this for each load that forwarded from a store younger than
        its window (``store_ssn > current_svw``).
        """
        if not self.config.update_on_forward:
            return current_svw
        if self.weak_upd:
            # Planted mutant (fuzz-smoke only): claims invulnerability to
            # every store renamed so far, not just the one forwarded from.
            return max(current_svw, self.ssn.rename)
        return max(current_svw, store_ssn)

    def must_reexecute(self, addr: int, size: int, svw: int) -> bool:
        """The re-execution filter test: ``SSBF[ld.addr] > ld.SVW``."""
        if not self.config.enabled:
            return True
        return self.ssbf.lookup(addr, size) > svw

    # -- store-side interface --------------------------------------------------------

    def record_store(self, addr: int, size: int, ssn: int) -> None:
        """A store passed the SVW stage: ``SSBF[st.addr] = st.SSN``."""
        if self.config.enabled:
            self.ssbf.update(addr, size, ssn)

    def record_invalidation(self, line_addr: int, line_bytes: int = 64) -> None:
        """A coherence invalidation (NLQ-SM): pretend an asynchronous store
        younger than everything in flight wrote the whole line."""
        if self.config.enabled:
            self.ssbf.invalidate_line(line_addr, line_bytes, self.ssn.rename + 1)

    # -- wrap-around drains -------------------------------------------------------------

    def drain(self) -> None:
        """Wrap-around drain: reset SSNs, flash-clear SSBF, notify hooks."""
        self.ssn.drain()
        self.ssbf.flash_clear()
        for hook in self.on_drain:
            hook()
