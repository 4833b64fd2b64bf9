"""The integration table (register integration; Petric, Bracy & Roth).

An instruction is redundant "if it performs the same operation on the same
physical register inputs as an instruction which has an IT entry".  For
loads the operation signature is (address-producer, offset, size): the
producer seq of the base register plays the role of the physical register
name, exactly the information renaming exposes.

Entries are created by non-redundant loads (attaching ``SSN_RENAME``, which
begins the vulnerability window for any future load that reuses the
result -- section 3.4) and by stores (speculative memory bypassing: the
redundant load takes the store's data and is vulnerable to stores younger
than the store itself).

Squash reuse: a squashed instruction's entry remains; its re-fetched
incarnation can integrate with its own squashed execution.  SVW must be
disabled for such loads (the paper's corner case: a forwarding store that
existed on the squashed path but not the correct path is invisible to the
SSBF), so entries remember that their creator was squashed.  The
``SVW-SQU`` configuration deletes such entries instead, forfeiting squash
reuse to make the remaining re-executions filterable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.isa.inst import Signature
from repro.pipeline.inflight import InFlight


@dataclass(slots=True)
class ITEntry:
    """One integration-table entry."""

    signature: Signature
    creator: InFlight
    #: Start of the vulnerability window for integrating loads:
    #: SSN_RENAME at creation (load entries) or the store's own SSN.
    ssn: int
    #: Creator is a store (speculative memory bypassing) vs a load (reuse).
    from_store: bool
    #: Creator was squashed after executing (squash-reuse entry).
    creator_squashed: bool = False
    stamp: int = 0

    @property
    def value(self) -> int:
        if self.from_store:
            return self.creator.store_value
        return self.creator.exec_value


_STAMP = attrgetter("stamp")


class IntegrationTable:
    """Set-associative IT with LRU replacement."""

    __slots__ = ("_sets_count", "_assoc", "_sets", "_stamp")

    def __init__(self, entries: int = 512, assoc: int = 2) -> None:
        if entries % assoc:
            raise ValueError("entries must divide into ways")
        self._sets_count = entries // assoc
        self._assoc = assoc
        self._sets: list[dict[Signature, ITEntry]] = [
            dict() for _ in range(self._sets_count)
        ]
        self._stamp = 0

    def _set_for(self, signature: Signature) -> dict[Signature, ITEntry]:
        return self._sets[hash(signature) % self._sets_count]

    def lookup(self, signature: Signature) -> ITEntry | None:
        """Find a usable entry: its creator's value exists (the creator
        executed or was itself integrated)."""
        entry = self._set_for(signature).get(signature)
        if entry is None or not entry.creator.done:
            return None
        self._stamp += 1
        entry.stamp = self._stamp
        return entry

    def create(self, signature: Signature, creator: InFlight, ssn: int, from_store: bool) -> None:
        ways = self._set_for(signature)
        self._stamp += 1
        if signature not in ways and len(ways) >= self._assoc:
            victim = min(ways.values(), key=_STAMP)
            del ways[victim.signature]
        ways[signature] = ITEntry(
            signature=signature,
            creator=creator,
            ssn=ssn,
            from_store=from_store,
            stamp=self._stamp,
        )

    def invalidate(self, signature: Signature) -> None:
        """Drop an entry (re-execution proved it stale)."""
        self._set_for(signature).pop(signature, None)

    def on_squash(self, flush_seq: int, keep_squash_reuse: bool) -> None:
        """Handle a pipeline flush at ``flush_seq``.

        Entries created by squashed instructions either become squash-reuse
        entries (SVW disabled for their integrators) or are deleted (the
        ``SVW-SQU`` configuration).
        """
        for ways in self._sets:
            doomed = []
            for signature, entry in ways.items():
                if entry.creator.seq >= flush_seq:
                    if keep_squash_reuse:
                        entry.creator_squashed = True
                    else:
                        doomed.append(signature)
            for signature in doomed:
                del ways[signature]

    def flash_clear(self) -> None:
        """SSN wrap-around drain: all window anchors are invalid."""
        for ways in self._sets:
            ways.clear()

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)
