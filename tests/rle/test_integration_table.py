"""Tests for the register-integration table."""

import pytest

from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import KIND_LOAD, KIND_STORE, DynInst
from repro.isa.ops import OpClass
from repro.pipeline.inflight import InFlight
from repro.rle.integration import IntegrationTable


def _load(seq, value=0):
    entry = InFlight(seq, 0x100, KIND_LOAD, 1)
    entry.addr, entry.size = 0x1000, 8
    entry.done = True
    entry.exec_value = value
    return entry


def _store(seq, value=0):
    entry = InFlight(seq, 0x200, KIND_STORE, -1)
    entry.addr, entry.size = 0x1000, 8
    entry.store_value = value
    entry.done = True
    return entry


def _last_signature(load: DynInst):
    """The signature the processor integrates ``load`` under: its trace's
    ``TraceMeta.signature``, after ``load.seq`` ALU producers."""
    insts = [DynInst(seq=i, pc=4 * i, op=OpClass.IALU, dst_reg=1) for i in range(load.seq)]
    return ColumnTrace.from_insts("t", [*insts, load]).meta().signature[load.seq]


class TestSignatures:
    def test_signature_components(self):
        inst = DynInst(
            seq=5, pc=0x100, op=OpClass.LOAD, addr=0x1000, size=8,
            base_seq=3, offset=8,
        )
        assert _last_signature(inst) == (3, 8, 8)

    def test_untracked_base_has_no_signature(self):
        inst = DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x100, size=8)
        assert _last_signature(inst) is None


class TestLookupAndCreate:
    def test_hit_after_create(self):
        table = IntegrationTable(64, 2)
        creator = _load(5, value=77)
        table.create((3, 8, 8), creator, ssn=10, from_store=False)
        entry = table.lookup((3, 8, 8))
        assert entry is not None
        assert entry.value == 77
        assert entry.ssn == 10
        assert not entry.from_store

    def test_not_ready_creator_misses(self):
        table = IntegrationTable(64, 2)
        creator = _load(5)
        creator.done = False  # value does not exist yet
        table.create((3, 8, 8), creator, ssn=10, from_store=False)
        assert table.lookup((3, 8, 8)) is None

    def test_store_entry_value_is_store_data(self):
        table = IntegrationTable(64, 2)
        creator = _store(5, value=123)
        table.create((3, 8, 8), creator, ssn=4, from_store=True)
        entry = table.lookup((3, 8, 8))
        assert entry is not None and entry.value == 123 and entry.from_store

    def test_lru_eviction_within_set(self):
        table = IntegrationTable(2, 2)  # one set, two ways
        table.create((1, 0, 8), _load(1), ssn=1, from_store=False)
        table.create((2, 0, 8), _load(2), ssn=2, from_store=False)
        table.lookup((1, 0, 8))  # refresh first entry
        table.create((3, 0, 8), _load(3), ssn=3, from_store=False)
        assert table.lookup((1, 0, 8)) is not None
        assert table.lookup((2, 0, 8)) is None  # evicted

    def test_invalidate(self):
        table = IntegrationTable(64, 2)
        table.create((3, 8, 8), _load(5), ssn=10, from_store=False)
        table.invalidate((3, 8, 8))
        assert table.lookup((3, 8, 8)) is None


class TestSquashHandling:
    def test_squash_reuse_marks_entries(self):
        table = IntegrationTable(64, 2)
        table.create((3, 8, 8), _load(20), ssn=10, from_store=False)
        table.on_squash(flush_seq=15, keep_squash_reuse=True)
        entry = table.lookup((3, 8, 8))
        assert entry is not None and entry.creator_squashed

    def test_squash_without_reuse_deletes(self):
        table = IntegrationTable(64, 2)
        table.create((3, 8, 8), _load(20), ssn=10, from_store=False)
        table.on_squash(flush_seq=15, keep_squash_reuse=False)
        assert table.lookup((3, 8, 8)) is None

    def test_older_entries_survive_squash(self):
        table = IntegrationTable(64, 2)
        table.create((3, 8, 8), _load(5), ssn=10, from_store=False)
        table.on_squash(flush_seq=15, keep_squash_reuse=False)
        entry = table.lookup((3, 8, 8))
        assert entry is not None and not entry.creator_squashed

    def test_flash_clear(self):
        table = IntegrationTable(64, 2)
        table.create((3, 8, 8), _load(5), ssn=10, from_store=False)
        table.flash_clear()
        assert len(table) == 0

    def test_assoc_must_divide(self):
        with pytest.raises(ValueError):
            IntegrationTable(63, 2)
