"""LSU interface and shared forwarding helpers.

The processor owns the functional state (committed memory, the in-flight
store index); LSU variants implement *visibility*: which older stores a
load can see at execution time.  Getting visibility wrong is never fatal --
it produces a stale value that the re-execution machinery must catch,
which is precisely the speculation the paper studies.

The contract is seven hooks, one per load-store event:

- dispatch: ``on_load_dispatch`` and ``admit_store`` (which may refuse a
  store and stall dispatch);
- issue: ``execute_load``, which executes the load or names the store it
  must wait for;
- completion: ``on_store_resolved`` (address known) and
  ``on_store_forwardable`` (address and data known);
- exit: ``on_leave``, for a load or store that commits or is squashed;
- verification: ``on_rex_failure``, when re-execution catches a stale load.
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

    def admit_store(self, store: InFlight) -> bool:
        """Allocate variant-specific store state, or return False and change
        nothing if structural state (a full FSQ) must stall dispatch."""
        return True

    def on_load_dispatch(self, load: InFlight) -> None:
        """Allocate variant-specific load state."""

    # -- execution hooks -----------------------------------------------------------
    #
    # FSQ port contract: the scheduler charges a load against the FSQ
    # issue port iff ``load.fsq`` is set.  Variants that steer loads at
    # the FSQ (the SSQ) must set the flag at dispatch.

    @abc.abstractmethod
    def execute_load(self, load: InFlight) -> InFlight | None:
        """Produce the load's execution-time value, or name the store it
        must wait for.

        On execution, sets ``exec_value``, ``word_sources`` and
        ``forwarded_ssn`` and returns None; may set ``marked`` (natural
        re-execution filter).  An associative-SQ CAM match against a store
        whose address is known but whose data has not arrived cannot
        forward: the load returns that store, changes nothing, and the
        scheduler replays it.
        """

    def on_store_resolved(self, store: InFlight) -> InFlight | None:
        """Store address generation finished (data may still be pending).

        Returns the oldest load that violated ordering against this store
        (conventional LQ search), or None.
        """
        return None

    def on_store_forwardable(self, store: InFlight) -> None:
        """Store address *and* data are now available."""

    # -- retirement hooks ----------------------------------------------------------------

    def on_leave(self, entry: InFlight) -> None:
        """A load or store left the window (commit or squash alike);
        release its variant-specific state."""

    def on_rex_failure(self, load: InFlight, store_pc: int | None) -> None:
        """Re-execution caught a stale load; train steering/dependence state."""

    # -- shared helpers ----------------------------------------------------------------------

    def _assemble(
        self,
        load: InFlight,
        visible: Callable[[InFlight], bool] | None = None,
    ) -> InFlight | None:
        """Per-word value assembly with the given store-visibility rule.

        ``visible=None`` is the associative SQ's CAM rule, inlined without
        a predicate call per store because this runs once per issued load:
        a word's supplier is its youngest older store whose address is
        known (``issued``), and if that store's data has not arrived (not
        ``done``) the load is blocked -- the store is returned and the load
        is left untouched.  A given ``visible`` never blocks.
        ``store_words`` holds no empty bucket (commit and squash delete
        them), so a word it lacks has no in-flight writer.
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
            return None
        sources = []
        forwarded_ssns = []
        value = 0
        for shift, word in enumerate(words):
            supplier = None
            stores = store_words.get(word)
            if stores:
                for store in reversed(stores):
                    if store.seq >= load_seq or store.squashed:
                        continue
                    if visible is None:
                        if not store.issued:
                            continue  # address unknown to the CAM
                        if not store.done:
                            return store  # CAM match without data yet: replay
                    elif not visible(store):
                        continue
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
        return None
