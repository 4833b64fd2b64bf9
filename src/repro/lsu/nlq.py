"""Non-associative load queue (Figure 2b; Cain & Lipasti, ISCA 2004).

The LQ's associative search port is removed: stores no longer search the
LQ when their addresses resolve, which frees the machine to issue two
stores per cycle.  Ordering violations are instead caught by in-order
pre-commit load re-execution.  The *natural re-execution filter* is the
scheduler: "only loads that issued in the presence of older stores with
unresolved addresses are re-executed" -- these are the *marked* loads.

Store-load pair training uses the SPCT (section 2.2): on a flush, the
conflicting store's PC is retrieved from the SPCT using the load address
and fed to store-sets.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.lsu.base import LoadStoreUnit
from repro.pipeline.inflight import InFlight


class NonAssociativeLQ(LoadStoreUnit):
    """Associative SQ for forwarding; re-execution for ordering."""

    __slots__ = ("_unresolved",)

    def __init__(self, proc) -> None:
        super().__init__(proc)
        #: In-flight stores by age, pruned lazily once resolved or squashed.
        self._unresolved: list[tuple[int, InFlight]] = []

    def on_store_dispatch(self, store: InFlight) -> None:
        heappush(self._unresolved, (store.seq, store))

    def older_unresolved_store_exists(self, seq: int) -> bool:
        """Is any older in-flight store's address still unknown?

        This is the NLQ-LS natural-filter condition the scheduler evaluates.
        A store's address is known to the scheduler once the store issues
        (AGEN happens in the issue cycle).
        """
        heap = self._unresolved
        while heap:
            _, store = heap[0]
            if store.squashed or store.issued:
                heappop(heap)
                continue
            return heap[0][0] < seq
        return False

    #: The associative SQ's CAM check, bound directly (no wrapper frame).
    load_must_wait = LoadStoreUnit._sq_data_blocker

    def execute_load(self, load: InFlight) -> None:
        self._assemble(load)  # default visibility: store.done
        # Natural filter: mark loads issuing past unresolved older stores.
        if self.older_unresolved_store_exists(load.seq):
            load.marked = True

    def on_rex_failure(self, load: InFlight, store_pc: int | None) -> None:
        """Train a precise store-load pair through the SPCT."""
        if store_pc is not None and self.store_sets is not None:
            self.store_sets.train(load.pc, store_pc)
