"""Mutable per-dynamic-instruction pipeline state.

A fresh :class:`InFlight` is allocated every time a dynamic instruction is
dispatched (including re-dispatch after a squash).  Since the
column-native refactor it carries the handful of static facts the stage
loops and LSU variants read -- ``pc``, ``kind``, ``dst_reg`` and, for
memory ops and branches, ``addr``/``size``/``store_value``/``taken`` --
copied out of the trace's flat columns at dispatch; it no longer wraps a
:class:`~repro.isa.inst.DynInst` object.  All timing and speculation state
lives here, never in the immutable trace.

Allocation is on the per-instruction path, so ``__init__`` writes only the
fields some stage may read before setting them.  The others stay unset
until the event that gives them meaning writes them, and nothing reads
them earlier:

- ``complete_cycle``: at issue (or integration), read once ``done``;
- ``rex_done_cycle``: when re-execution starts (``IN_FLIGHT``);
- ``rex_value``: when re-execution or perfect verification finishes;
- ``forwarded_ssn``: by the LSU's ``execute_load``;
- ``ssn``: at store dispatch, read only on stores;
- ``elim_bypass``, ``squash_reuse``: at integration, read only on
  ``eliminated`` loads.
"""

from __future__ import annotations

import enum


class RexState(enum.IntEnum):
    """Verification status of an in-flight instruction."""

    NOT_NEEDED = 0  # unmarked: flows through the re-execution pipe for free
    PENDING = 1  # marked, waiting to reach the re-execution frontier
    IN_FLIGHT = 2  # marked, data-cache re-access in progress
    DONE_OK = 3  # verified (re-executed and matched, or never marked)
    FILTERED = 4  # marked, excused by the SVW filter test
    FAILED = 5  # re-executed and mismatched: flush when this commits
    SVW_FLUSH = 6  # svw-only mode: positive test, flush-and-refetch


#: Read once here: every dispatch allocates an entry, and on CPython 3.11
#: an enum-member read costs several plain attribute reads.
_NOT_NEEDED = RexState.NOT_NEEDED


class InFlight:
    """Pipeline state of one dispatched dynamic instruction."""

    __slots__ = (
        "seq",
        "pc",
        "kind",
        "dst_reg",
        "addr",
        "size",
        "store_value",
        "taken",
        "squashed",
        "pending_srcs",
        "data_pending",
        "waiters",
        "issued",
        "done",
        "rex_state",
        "marked",
        "svw",
        "exec_value",
        "word_sources",
        "resolved",
        "fsq",
        "eliminated",
        "it_signature",
        "mispredicted",
        # Unset until first written (see the module docstring).
        #: Cycle the execution (or integration) completes.
        "complete_cycle",
        #: Cycle the re-execution access completes.
        "rex_done_cycle",
        #: Architecturally-correct value found at re-execution.
        "rex_value",
        #: SSN of the youngest store that forwarded any word (0 = none).
        "forwarded_ssn",
        #: Store sequence number (stores only).
        "ssn",
        #: RLE: elimination came from a store (bypassing) vs a load (reuse).
        "elim_bypass",
        #: RLE: the matched IT entry's creator was squashed.
        "squash_reuse",
    )

    def __init__(self, seq: int, pc: int, kind: int, dst_reg: int) -> None:
        self.seq = seq
        self.pc = pc
        #: ``KIND_*`` code (see :mod:`repro.isa.inst`).
        self.kind = kind
        self.dst_reg = dst_reg
        #: Effective address / access size (memory ops; the dispatch loop
        #: fills these from the trace columns), else 0.
        self.addr = 0
        self.size = 0
        #: Value written (stores), else 0.
        self.store_value = 0
        #: Branch outcome (branches), else False.
        self.taken = False
        self.squashed = False
        self.pending_srcs = 0
        #: Stores: 1 while the store-data producer is outstanding.  Store
        #: address generation (STA) and data (STD) are split as in real
        #: machines: AGEN issues on address operands alone.
        self.data_pending = 0
        #: Waiters as (role, entry): role 0 = register operand, 1 = store data.
        self.waiters: list[tuple[int, InFlight]] | None = None
        self.issued = False
        self.done = False
        self.rex_state = _NOT_NEEDED
        self.marked = False
        #: SSN of the youngest older store this load is NOT vulnerable to.
        self.svw = 0
        #: Value obtained at execution (loads) -- possibly mis-speculated.
        self.exec_value = 0
        #: For issued loads: per-word seq of the supplying store (-1 = memory).
        self.word_sources: tuple[int, ...] | None = None
        #: Store address generation done (stores only).
        self.resolved = False
        #: SSQ steering: this load/store uses the FSQ.
        self.fsq = False
        #: RLE: load removed from the execution engine.
        self.eliminated = False
        #: RLE: signature of the IT entry this load integrated with.
        self.it_signature: tuple[int, int, int] | None = None
        #: Branches: direction or target misprediction.
        self.mispredicted = False

    def __lt__(self, other: "InFlight") -> bool:
        """Age order; ties (a squashed and a refetched incarnation of the
        same seq inside a lazy heap) break arbitrarily but deterministically."""
        return self.seq < other.seq or (self.seq == other.seq and self.squashed)

    def add_waiter(self, waiter: "InFlight", role: int = 0) -> None:
        if self.waiters is None:
            self.waiters = [(role, waiter)]
        else:
            self.waiters.append((role, waiter))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InFlight(seq={self.seq}, kind={self.kind}, issued={self.issued}, "
            f"done={self.done}, rex={self.rex_state.name})"
        )
