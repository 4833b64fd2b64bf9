"""LSU interface and shared forwarding helpers.

The processor owns the functional state (committed memory, the in-flight
store index); LSU variants implement *visibility*: which older stores a
load can see at execution time.  Getting visibility wrong is never fatal --
it produces a stale value that the re-execution machinery must catch,
which is precisely the speculation the paper studies.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.pipeline.inflight import InFlight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.processor import Processor

#: word_sources value meaning "word came from committed memory".
FROM_MEMORY = -1


def store_word_value(store: InFlight, word: int) -> int:
    """The 32-bit value ``store`` writes to 4-byte-aligned ``word``."""
    if word == store.addr:
        return store.store_value & 0xFFFF_FFFF
    return (store.store_value >> 32) & 0xFFFF_FFFF


class LoadStoreUnit(abc.ABC):
    """One load-store unit organization.

    An LSU holds the processor substrates it reads, which the processor
    binds once and never rebinds (``stats``, swapped after warm-up, is
    handed over), never the processor itself: a simulation is acyclic.
    """

    __slots__ = ("words", "store_words", "committed_memory", "hierarchy", "store_sets", "stats")

    def __init__(self, proc: "Processor") -> None:
        self.words = proc.meta.words
        self.store_words = proc.store_words
        self.committed_memory = proc.committed_memory
        self.hierarchy = proc.hierarchy
        self.store_sets = proc.store_sets
        self.stats = proc.stats

    # -- dispatch hooks ---------------------------------------------------------

    def store_dispatch_ready(self, store: InFlight) -> bool:
        """False if structural state (e.g. a full FSQ) must stall dispatch."""
        return True

    def on_store_dispatch(self, store: InFlight) -> None:
        """Allocate variant-specific store state."""

    def on_load_dispatch(self, load: InFlight) -> None:
        """Allocate variant-specific load state."""

    # -- execution hooks -----------------------------------------------------------
    #
    # FSQ port contract: the scheduler charges a load against the FSQ
    # issue port iff ``load.fsq`` is set.  Variants that steer loads at
    # the FSQ (the SSQ) must set the flag at dispatch.

    @abc.abstractmethod
    def execute_load(self, load: InFlight) -> None:
        """Produce the load's execution-time value.

        Must set ``exec_value``, ``word_sources`` and ``forwarded_ssn``;
        may set ``marked`` (natural re-execution filter) and ``fsq``.
        """

    def on_store_resolved(self, store: InFlight) -> InFlight | None:
        """Store address generation finished (data may still be pending).

        Returns the oldest load that violated ordering against this store
        (conventional LQ search), or None.
        """
        return None

    def on_store_forwardable(self, store: InFlight) -> None:
        """Store address *and* data are now available."""

    def load_must_wait(self, load: InFlight) -> InFlight | None:
        """A store the load must wait for before issuing, or None.

        An SQ CAM match against a store whose address is known but whose
        data has not arrived cannot forward; the load replays until the
        data shows up.  Variants without an associative SQ return None
        (the load proceeds and re-execution cleans up).
        """
        return None

    def _sq_data_blocker(self, load: InFlight) -> InFlight | None:
        """Shared implementation of :meth:`load_must_wait` for CAM-SQ LSUs."""
        load_seq = load.seq
        store_words = self.store_words
        for word in self.words[load_seq]:
            stores = store_words.get(word)
            if not stores:
                continue
            for store in reversed(stores):
                if store.seq >= load_seq or store.squashed or not store.issued:
                    continue  # younger, gone, or address unknown to the CAM
                if not store.done:
                    return store  # CAM match without data yet: replay
                break  # youngest older CAM match can forward
        return None

    # -- retirement hooks ----------------------------------------------------------------

    def on_store_commit(self, store: InFlight) -> None:
        """Free variant-specific store state."""

    def on_load_commit(self, load: InFlight) -> None:
        """Free variant-specific load state."""

    def on_squash(self, entry: InFlight) -> None:
        """Entry squashed; release its variant-specific state."""

    def on_rex_failure(self, load: InFlight, store_pc: int | None) -> None:
        """Re-execution caught a stale load; train steering/dependence state."""

    # -- shared helpers ----------------------------------------------------------------------

    def _assemble(
        self,
        load: InFlight,
        visible: Callable[[InFlight], bool] | None = None,
    ) -> None:
        """Per-word value assembly with the given store-visibility rule.

        ``visible=None`` is the common "address resolved and data present"
        rule (``store.done``), inlined without a predicate call per store
        because this runs once per issued load.  ``store_words`` holds no
        empty bucket (commit and squash delete them), so a word it lacks
        has no in-flight writer.
        """
        load_seq = load.seq
        store_words = self.store_words
        committed_read = self.committed_memory.read
        words = self.words[load_seq]
        for word in words:
            if word in store_words:
                break
        else:
            # Fast path (most loads): no in-flight store writes any of the
            # words, so committed memory supplies the value under any
            # visibility rule.  ``words`` are the aligned words from
            # ``addr`` on, so one ``size``-byte read assembles them.
            load.exec_value = committed_read(load.addr, load.size)
            load.word_sources = (FROM_MEMORY,) * len(words)
            load.forwarded_ssn = 0
            return
        sources = []
        forwarded_ssns = []
        value = 0
        for shift, word in enumerate(words):
            supplier = None
            stores = store_words.get(word)
            if stores:
                for store in reversed(stores):
                    if (
                        store.seq < load_seq
                        and not store.squashed
                        and (store.done if visible is None else visible(store))
                    ):
                        supplier = store
                        break
            if supplier is None:
                value |= committed_read(word, 4) << (32 * shift)
                sources.append(FROM_MEMORY)
                forwarded_ssns.append(0)
            else:
                value |= store_word_value(supplier, word) << (32 * shift)
                sources.append(supplier.seq)
                forwarded_ssns.append(supplier.ssn)
        if load.size == 4:
            value &= 0xFFFF_FFFF
        load.exec_value = value
        load.word_sources = tuple(sources)
        # Conservative multi-word rule: the load only becomes invulnerable
        # up to the *oldest* contributing store; any memory-supplied word
        # means no shrink at all (ssn 0).
        load.forwarded_ssn = min(forwarded_ssns)
        if load.forwarded_ssn > 0:
            self.stats.forwarded_loads += 1
