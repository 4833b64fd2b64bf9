"""Speculative store queue (Figure 2c; Roth TR-04-09 / Baugh & Zilles).

The conventional SQ's two jobs are split:

- a large, non-associative **retirement SQ (RSQ)** buffers all in-flight
  stores for in-order retirement (off the load critical path);
- a small, single-ported **forwarding SQ (FSQ)** performs store-load
  forwarding for the few load/store static instructions that need it;
- an 8-entry unordered **forwarding buffer** in front of each cache bank
  handles the simple, unambiguous in-order forwarding cases best-effort.

Steering is a predictor: one bit per static instruction (held in the
instruction cache in hardware; a PC set here).  Initially no loads or
stores use the FSQ; when re-execution detects a missed or wrong forwarding
instance, the participating load PC and store PC (recovered through the
SPCT) are tagged for future FSQ access/entry.

SSQ has **no natural re-execution filter**: every load is marked, because
even a load that has never read from a store must re-execute to make sure
its first forwarding instance is not missed.  This is the optimization SVW
*enables* (section 3.3).
"""

from __future__ import annotations

from collections import deque

from repro.isa.inst import KIND_STORE
from repro.lsu.base import FROM_MEMORY, LoadStoreUnit
from repro.pipeline.inflight import InFlight


def _fsq_visible(store: InFlight) -> bool:
    """FSQ search: only FSQ-resident complete stores are visible."""
    return store.fsq and store.done


class SpeculativeSQ(LoadStoreUnit):
    """RSQ + FSQ + per-bank best-effort forwarding buffers."""

    __slots__ = ("fsq_size", "fsq_occupancy", "load_bits", "store_bits", "_buffers")

    def __init__(self, proc) -> None:
        super().__init__(proc)
        config = proc.config
        self.fsq_size = config.fsq_size
        self.fsq_occupancy = 0
        self.load_bits: set[int] = set()
        self.store_bits: set[int] = set()
        banks = config.hierarchy.l1d.banks
        self._buffers: list[deque[InFlight]] = [
            deque(maxlen=config.forward_buffer_entries) for _ in range(banks)
        ]

    # -- dispatch -----------------------------------------------------------------

    def store_dispatch_ready(self, store: InFlight) -> bool:
        if store.pc in self.store_bits:
            return self.fsq_occupancy < self.fsq_size
        return True

    def on_store_dispatch(self, store: InFlight) -> None:
        if store.pc in self.store_bits:
            store.fsq = True
            self.fsq_occupancy += 1

    def on_load_dispatch(self, load: InFlight) -> None:
        # No natural filter: every load re-executes (absent SVW).
        load.marked = True
        if load.pc in self.load_bits:
            load.fsq = True

    # -- execution -------------------------------------------------------------------

    def execute_load(self, load: InFlight) -> None:
        if load.fsq:
            self._assemble(load, _fsq_visible)
            return
        # Best-effort path: the bank's forwarding buffer, else the cache.
        words = self.words[load.seq]
        addr = load.addr
        bank = self.hierarchy.load_bank(addr)
        match: InFlight | None = None
        for store in reversed(self._buffers[bank]):
            if (
                store.addr == addr
                and store.seq < load.seq
                and not store.squashed
                and store.size == load.size
            ):
                match = store
                break
        if match is not None:
            load.exec_value = match.store_value
            load.word_sources = (match.seq,) * len(words)
            # Best-effort forwarding "does not maintain the invariants
            # required" for the SVW forward update (section 4.2).
            load.forwarded_ssn = 0
            self.stats.forwarded_loads += 1
            return
        # In-flight stores are invisible outside the FSQ/buffer: read the
        # committed image (the cache).  Stale values are caught by rex.
        # ``words`` are the aligned words from ``addr`` on: one read.
        load.exec_value = self.committed_memory.read(addr, load.size)
        load.word_sources = (FROM_MEMORY,) * len(words)
        load.forwarded_ssn = 0

    def on_store_forwardable(self, store: InFlight) -> None:
        # Insert into the bank's best-effort buffer (FIFO, unordered) once
        # both the address and the value exist.
        bank = self.hierarchy.load_bank(store.addr)
        self._buffers[bank].append(store)

    # -- retirement / recovery --------------------------------------------------------

    def on_store_commit(self, store: InFlight) -> None:
        self._release(store)

    def on_squash(self, entry: InFlight) -> None:
        if entry.kind == KIND_STORE:
            self._release(entry)

    def _release(self, store: InFlight) -> None:
        if store.fsq:
            store.fsq = False
            self.fsq_occupancy -= 1
        bank = self.hierarchy.load_bank(store.addr)
        try:
            self._buffers[bank].remove(store)
        except ValueError:
            pass

    def on_rex_failure(self, load: InFlight, store_pc: int | None) -> None:
        """Tag the participating load and store for FSQ access/entry.

        The pair also trains store-sets: a stale load that issued before
        the store resolved must learn to wait, FSQ or not (both machine
        configurations "use store-sets to manage load speculation").
        """
        self.load_bits.add(load.pc)
        if store_pc is not None:
            self.store_bits.add(store_pc)
            if self.store_sets is not None:
                self.store_sets.train(load.pc, store_pc)
