"""Conventional load-store unit (Figure 2a).

An associative SQ forwards from every resolved older in-flight store; an
associative LQ enforces intra-thread ordering: when a store resolves its
address, it searches the LQ for younger loads to the same address that
issued prematurely, and a match flushes the load and everything younger.
The LQ's single associative port is what limits the baseline machine to
one store issue per cycle in the Figure 5 experiments.
"""

from __future__ import annotations

from repro.isa.inst import KIND_LOAD
from repro.lsu.base import LoadStoreUnit, store_word_value
from repro.pipeline.inflight import InFlight


class ConventionalLSU(LoadStoreUnit):
    """Associative SQ + associative LQ."""

    __slots__ = ("_loads_by_word",)

    def __init__(self, proc) -> None:
        super().__init__(proc)
        # Issued speculative loads indexed by word, for the LQ search.
        self._loads_by_word: dict[int, list[InFlight]] = {}

    #: The associative SQ's CAM check, bound directly (no wrapper frame).
    load_must_wait = LoadStoreUnit._sq_data_blocker

    def execute_load(self, load: InFlight) -> None:
        self._assemble(load)  # default visibility: store.done
        loads_by_word = self._loads_by_word
        for word in self.words[load.seq]:
            loads_by_word.setdefault(word, []).append(load)

    def on_store_resolved(self, store: InFlight) -> InFlight | None:
        """LQ search: oldest younger load that issued with a stale source.

        The search is value-aware (section 2.2: "If the LQ contains values
        in addition to addresses, some flushes may be avoided as the search
        procedure could ignore ordering violations from silent stores"): a
        younger load whose read already matches what the store writes is
        not flushed.
        """
        victim: InFlight | None = None
        for word in self.words[store.seq]:
            loads = self._loads_by_word.get(word)
            if not loads:
                continue
            live = [ld for ld in loads if not ld.squashed and ld.issued]
            if len(live) != len(loads):
                self._loads_by_word[word] = live
            written = store_word_value(store, word)
            for load in live:
                if load.seq <= store.seq or load.word_sources is None:
                    continue
                index = index_of_word(load, word)
                source = load.word_sources[index]
                observed = (load.exec_value >> (32 * index)) & 0xFFFF_FFFF
                if (
                    source < store.seq
                    and observed != written
                    and (victim is None or load.seq < victim.seq)
                ):
                    victim = load
        return victim

    def _drop(self, load: InFlight) -> None:
        if load.kind == KIND_LOAD and load.word_sources is not None:
            for word in self.words[load.seq]:
                loads = self._loads_by_word.get(word)
                if loads is not None:
                    try:
                        loads.remove(load)
                    except ValueError:
                        pass

    def on_load_commit(self, load: InFlight) -> None:
        self._drop(load)

    def on_squash(self, entry: InFlight) -> None:
        if entry.kind == KIND_LOAD:
            self._drop(entry)


def index_of_word(load: InFlight, word: int) -> int:
    """Position of ``word`` in the load's word tuple (0 or 1)."""
    return 0 if word == load.addr else 1
