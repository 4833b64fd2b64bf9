"""Unit tests for dynamic instruction records and trace validation."""

import pytest

from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import DynInst
from repro.isa.ops import ISSUE_CLASS_BY_OP, LATENCY_BY_OP, OpClass


class TestDynInst:
    def test_load_classification(self):
        load = DynInst(seq=0, pc=4, op=OpClass.LOAD, addr=0x100, size=8)
        assert load.is_load and load.is_mem
        assert not load.is_store and not load.is_branch

    def test_words_of_four_byte_access(self):
        inst = DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x100, size=4)
        assert inst.words() == (0x100,)

    def test_words_of_eight_byte_access(self):
        inst = DynInst(seq=0, pc=0, op=OpClass.STORE, addr=0x100, size=8)
        assert inst.words() == (0x100, 0x104)

    def test_records_are_immutable(self):
        inst = DynInst(seq=0, pc=0, op=OpClass.IALU)
        with pytest.raises(AttributeError):
            inst.seq = 5  # type: ignore[misc]


class TestTraceValidation:
    def _mk(self, insts):
        return ColumnTrace.from_insts("t", insts)

    def test_valid_trace_passes(self):
        trace = self._mk(
            [
                DynInst(seq=0, pc=0, op=OpClass.IALU, dst_reg=1),
                DynInst(seq=1, pc=4, op=OpClass.LOAD, src_seqs=(0,), addr=0x100, size=8),
            ]
        )
        trace.validate()

    def test_dense_seq_numbering_enforced(self):
        with pytest.raises(ValueError, match="seq"):
            self._mk([DynInst(seq=1, pc=0, op=OpClass.IALU)]).validate()

    def test_future_producer_rejected(self):
        trace = self._mk(
            [DynInst(seq=0, pc=0, op=OpClass.IALU, src_seqs=(3,))]
        )
        with pytest.raises(ValueError, match="producer"):
            trace.validate()

    def test_unaligned_address_rejected(self):
        trace = self._mk([DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x101, size=4)])
        with pytest.raises(ValueError, match="unaligned"):
            trace.validate()

    def test_unaligned_8b_rejected(self):
        trace = self._mk([DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x104, size=8)])
        with pytest.raises(ValueError, match="unaligned 8B"):
            trace.validate()

    def test_bad_size_rejected(self):
        trace = self._mk([DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x100, size=2)])
        with pytest.raises(ValueError, match="size"):
            trace.validate()

    def test_stats_mix(self):
        trace = self._mk(
            [
                DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0, size=4),
                DynInst(seq=1, pc=0, op=OpClass.STORE, addr=0, size=4),
                DynInst(seq=2, pc=0, op=OpClass.BRANCH),
                DynInst(seq=3, pc=0, op=OpClass.IALU),
            ]
        )
        stats = trace.stats()
        assert stats["load_frac"] == 0.25
        assert stats["store_frac"] == 0.25
        assert stats["branch_frac"] == 0.25


class TestOps:
    """The tables ``TraceMeta`` is built from, indexed by ``int(op)``."""

    def test_imul_is_longer_than_ialu(self):
        assert LATENCY_BY_OP[OpClass.IMUL] > LATENCY_BY_OP[OpClass.IALU]

    def test_imul_shares_integer_issue_ports(self):
        assert ISSUE_CLASS_BY_OP[OpClass.IMUL] == OpClass.IALU

    def test_mem_ops_issue_on_memory_ports(self):
        assert ISSUE_CLASS_BY_OP[OpClass.LOAD] == OpClass.LOAD
        assert ISSUE_CLASS_BY_OP[OpClass.STORE] == OpClass.STORE
        assert ISSUE_CLASS_BY_OP[OpClass.BRANCH] not in (OpClass.LOAD, OpClass.STORE)

    @pytest.mark.parametrize("op", list(OpClass))
    def test_every_class_has_latency_and_port(self, op):
        assert LATENCY_BY_OP[op] >= 1
        assert ISSUE_CLASS_BY_OP[op] in (
            OpClass.IALU,
            OpClass.FALU,
            OpClass.LOAD,
            OpClass.STORE,
            OpClass.BRANCH,
        )
