"""The LSU contract: one call per load-store event.

``execute_load`` either executes a load or names the store it must wait
for, and then changes nothing; ``admit_store`` either allocates a store's
variant state or refuses it and changes nothing; ``on_leave`` releases a
load's or store's variant state whether it commits or is squashed.
"""

import pytest

from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import KIND_LOAD, KIND_STORE, DynInst
from repro.isa.ops import OpClass
from repro.pipeline.config import LSUKind, RexMode, eight_wide
from repro.pipeline.inflight import InFlight
from repro.pipeline.processor import Processor

STORE_PC = 0x200
LOAD_PC = 0x300


def _config(lsu: LSUKind):
    if lsu is LSUKind.CONVENTIONAL:
        return eight_wide("conventional")
    return eight_wide(lsu.name, lsu=lsu, rex_mode=RexMode.REEXECUTE, rex_stages=2)


def _store(seq: int, addr: int, value: int) -> DynInst:
    return DynInst(seq=seq, pc=STORE_PC + 4 * seq, op=OpClass.STORE, addr=addr, size=4,
                   store_value=value)


def _load(seq: int, addr: int) -> DynInst:
    return DynInst(seq=seq, pc=LOAD_PC, op=OpClass.LOAD, dst_reg=1, addr=addr, size=4)


def _processor(lsu: LSUKind, insts: list[DynInst]) -> Processor:
    return Processor(_config(lsu), ColumnTrace.from_insts("contract", insts))


def _dispatched(lsu: LSUKind, insts: list[DynInst]) -> Processor:
    """A processor with every instruction of ``insts`` dispatched, none issued."""
    proc = _processor(lsu, insts)
    proc._do_dispatch()
    assert len(proc.rob) == len(insts)
    return proc


class TestExecuteLoad:
    """A CAM-SQ load blocked on a store without data changes nothing."""

    @pytest.mark.parametrize("lsu", [LSUKind.CONVENTIONAL, LSUKind.NLQ])
    @pytest.mark.parametrize("blocker_seq", [0, 1])
    def test_blocked_load_changes_nothing_then_forwards(self, lsu, blocker_seq):
        # Two older stores to the load's word; a third, to another word,
        # stays unresolved so NLQ's natural filter would mark the load.
        proc = _dispatched(lsu, [
            _store(0, 0x1000, 0xAB),
            _store(1, 0x1000, 0xCD),
            _store(2, 0x3000, 0xEF),
            _load(3, 0x1000),
        ])
        stores = [proc.inflight_by_seq[seq] for seq in range(3)]
        load = proc.inflight_by_seq[3]
        # The youngest older store with a known address is the supplier:
        # store 1 when it issued, else store 0 (store 1 is then invisible).
        for store in stores[:blocker_seq + 1]:
            store.issued = True
        for store in stores[:blocker_seq]:
            store.done = True
        blocker = stores[blocker_seq]
        lsu_unit = proc.lsu

        assert lsu_unit.execute_load(load) is blocker
        assert load.exec_value == 0
        assert load.word_sources is None
        assert not load.marked
        assert proc.stats.forwarded_loads == 0
        if lsu is LSUKind.CONVENTIONAL:
            assert lsu_unit._loads_by_word == {}

        blocker.done = True
        assert lsu_unit.execute_load(load) is None
        assert load.exec_value == blocker.store_value
        assert load.word_sources == (blocker.seq,)
        assert load.forwarded_ssn == blocker.ssn
        assert proc.stats.forwarded_loads == 1
        if lsu is LSUKind.CONVENTIONAL:
            assert lsu_unit._loads_by_word == {0x1000: [load]}
        else:
            assert load.marked  # store 2's address is still unknown


class TestAdmitStore:
    def test_full_fsq_refuses_and_changes_nothing(self):
        ssq = _processor(LSUKind.SSQ, [_store(0, 0x1000, 1)]).lsu
        ssq.store_bits.add(STORE_PC)
        steered = InFlight(0, STORE_PC, KIND_STORE, -1)
        ssq.fsq_occupancy = ssq.fsq_size
        assert ssq.admit_store(steered) is False
        assert ssq.fsq_occupancy == ssq.fsq_size
        assert not steered.fsq

        ssq.fsq_occupancy = ssq.fsq_size - 1
        assert ssq.admit_store(steered) is True
        assert ssq.fsq_occupancy == ssq.fsq_size
        assert steered.fsq

    def test_unsteered_store_skips_the_fsq(self):
        proc = _dispatched(LSUKind.SSQ, [_store(0, 0x1000, 1)])
        assert not proc.inflight_by_seq[0].fsq
        assert proc.lsu.fsq_occupancy == 0

    def test_full_fsq_stalls_dispatch(self):
        proc = _processor(LSUKind.SSQ, [_store(0, 0x1000, 1), _load(1, 0x1000)])
        proc.lsu.store_bits.add(STORE_PC)
        proc.lsu.fsq_occupancy = proc.lsu.fsq_size
        proc._do_dispatch()
        assert len(proc.rob) == 0
        assert proc.stats.dispatch_stalls == {"fsq": 1}
        assert proc.lsu.fsq_occupancy == proc.lsu.fsq_size


def _leave(proc: Processor, seq: int, how: str) -> None:
    """Take entry ``seq`` out of the window by commit or by squash."""
    entry = proc.inflight_by_seq[seq]
    if how == "squash":
        proc._squash_from(seq)
    elif entry.kind == KIND_LOAD:
        proc._commit_load(entry, proc.stats)
    else:
        proc._commit_store(entry, proc.stats)


@pytest.mark.parametrize("how", ["commit", "squash"])
class TestOnLeave:
    def test_ssq_store_frees_its_fsq_entry_and_buffer_slot(self, how):
        proc = _processor(LSUKind.SSQ, [_store(0, 0x1000, 1), _load(1, 0x2000)])
        ssq = proc.lsu
        ssq.store_bits.add(STORE_PC)
        ssq.load_bits.add(LOAD_PC)
        proc._do_dispatch()
        store, load = proc.inflight_by_seq[0], proc.inflight_by_seq[1]
        assert store.fsq and load.fsq and ssq.fsq_occupancy == 1
        ssq.on_store_forwardable(store)
        bank = proc.hierarchy.load_bank(store.addr)
        assert list(ssq._buffers[bank]) == [store]

        # A steered load holds no FSQ entry: its leaving frees nothing.
        _leave(proc, 1, how)
        assert ssq.fsq_occupancy == 1

        _leave(proc, 0, how)
        assert ssq.fsq_occupancy == 0
        assert not store.fsq
        assert list(ssq._buffers[bank]) == []

    def test_conventional_load_leaves_the_lq_index(self, how):
        proc = _dispatched(LSUKind.CONVENTIONAL, [_store(0, 0x1000, 1), _load(1, 0x2000)])
        lsu_unit = proc.lsu
        load = proc.inflight_by_seq[1]
        assert lsu_unit.execute_load(load) is None
        assert lsu_unit._loads_by_word == {0x2000: [load]}

        _leave(proc, 1, how)
        assert lsu_unit._loads_by_word == {}
