"""Unit tests for the column-native trace representation."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.bench import bench_configs
from repro.isa.codec import decode_trace, encode_trace
from repro.isa.coltrace import INST_COLUMNS, ColumnTrace
from repro.isa.golden import golden_execute
from repro.isa.inst import DynInst, Trace
from repro.isa.ops import OpClass
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace


def small_trace() -> Trace:
    insts = [
        DynInst(seq=0, pc=0x100, op=OpClass.IALU, dst_reg=1),
        DynInst(
            seq=1,
            pc=0x104,
            op=OpClass.STORE,
            src_seqs=(0,),
            addr=0x1000,
            size=8,
            store_value=0xAB,
            store_data_seq=0,
            base_seq=0,
            offset=16,
        ),
        DynInst(
            seq=2,
            pc=0x108,
            op=OpClass.LOAD,
            src_seqs=(0,),
            dst_reg=2,
            addr=0x1000,
            size=4,
            base_seq=0,
            offset=16,
        ),
        DynInst(seq=3, pc=0x10C, op=OpClass.BRANCH, src_seqs=(2,), taken=True),
    ]
    return Trace(name="small", insts=insts, initial_memory={0x1000: 7})


class TestConversion:
    def test_from_trace_round_trips_through_view(self):
        trace = small_trace()
        columns = ColumnTrace.from_trace(trace)
        assert len(columns) == 4
        assert columns.insts == trace.insts
        assert columns.name == "small"
        assert columns.initial_memory == {0x1000: 7}

    def test_trace_columns_is_cached(self):
        trace = small_trace()
        assert trace.columns() is trace.columns()

    def test_as_trace_shares_stream(self):
        columns = small_trace().columns()
        back = columns.as_trace()
        assert back.insts == columns.insts
        assert back.meta() is columns.meta()

    def test_iteration_and_indexing(self):
        columns = small_trace().columns()
        assert [inst.seq for inst in columns] == [0, 1, 2, 3]
        assert columns[2].is_load
        assert columns[3].taken is True

    def test_stats_match_object_path(self):
        trace = small_trace()
        assert trace.columns().stats() == trace.stats()

    def test_pickle_round_trip(self):
        columns = small_trace().columns()
        clone = pickle.loads(pickle.dumps(columns))
        assert clone.insts == columns.insts
        assert clone.name == columns.name


class TestHotView:
    def test_hot_columns_are_plain_lists(self):
        columns = small_trace().columns()
        hot = columns.hot()
        assert hot.pc == [0x100, 0x104, 0x108, 0x10C]
        assert hot.taken == [False, False, False, True]
        assert hot.srcs == [(), (0,), (0,), (2,)]
        assert columns.hot() is hot  # cached


class TestMetaAndGolden:
    def test_meta_matches_object_meta(self):
        trace = small_trace()
        object_meta = Trace(name="m", insts=trace.insts).meta()
        column_meta = trace.columns().meta()
        assert column_meta.kind == object_meta.kind
        assert column_meta.latency == object_meta.latency
        assert column_meta.issue_class == object_meta.issue_class
        assert column_meta.words == object_meta.words
        assert column_meta.signature == object_meta.signature

    def test_golden_execute_matches_object_path(self):
        trace = small_trace()
        on_objects = golden_execute(trace)
        on_columns = golden_execute(trace.columns())
        assert on_columns.load_values == on_objects.load_values
        assert on_columns.silent_stores == on_objects.silent_stores


class TestValidate:
    def test_validate_accepts_consistent_columns(self):
        small_trace().columns().validate()

    def test_future_producer_rejected(self):
        insts = [DynInst(seq=0, pc=0, op=OpClass.IALU, src_seqs=(0,))]
        with pytest.raises(ValueError, match="future/invalid producer"):
            ColumnTrace.from_trace(Trace(name="bad", insts=insts)).validate()

    def test_unaligned_mem_rejected(self):
        insts = [DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x1002, size=4)]
        with pytest.raises(ValueError, match="unaligned"):
            ColumnTrace.from_trace(Trace(name="bad", insts=insts)).validate()

    def test_signature_collision_rejected(self):
        insts = [
            DynInst(seq=0, pc=0, op=OpClass.IALU, dst_reg=1),
            DynInst(seq=1, pc=4, op=OpClass.LOAD, addr=0x1000, size=4, base_seq=0, offset=8),
            DynInst(seq=2, pc=8, op=OpClass.LOAD, addr=0x2000, size=4, base_seq=0, offset=8),
        ]
        with pytest.raises(ValueError, match="maps to both"):
            ColumnTrace.from_trace(Trace(name="bad", insts=insts)).validate()

    def test_ragged_columns_rejected(self):
        columns = small_trace().columns()
        arrays = {name: getattr(columns, name) for name, _, _ in INST_COLUMNS}
        arrays["src_offsets"] = columns.src_offsets
        arrays["src_flat"] = columns.src_flat
        arrays["op"] = arrays["op"][:2]
        with pytest.raises(ValueError, match="expected"):
            ColumnTrace("ragged", arrays)


class TestProcessorEquivalence:
    """Processor-on-columns == Processor-on-objects, bit for bit, for the
    live generator, the fixed kernels and the codec round-trip."""

    N = 4000

    @staticmethod
    def object_built(columns: ColumnTrace) -> Trace:
        # A fresh Trace over the DynInst view, with no columns or meta
        # attached, so the processor columnizes it from the objects.
        return Trace(
            name=columns.name,
            insts=list(columns.insts),
            initial_memory=dict(columns.initial_memory),
            wrong_path_addrs=columns.wrong_path_addrs,
        )

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_columns_match_objects_per_lsu(self, kind):
        _, config = bench_configs()[kind]
        column = generate_trace(spec_profile("gcc"), self.N)
        on_objects = Processor(
            config, self.object_built(column), validate=True, warmup=500
        ).run()
        on_columns = Processor(config, column, validate=True, warmup=500).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_kernel_columns_match_objects_per_lsu(self, kind, spill_fill_trace):
        """Fixed (object-built) kernel traces behave identically columnized."""
        _, config = bench_configs()[kind]
        columns = ColumnTrace.from_trace(spill_fill_trace)
        on_objects = Processor(config, spill_fill_trace, validate=True).run()
        on_columns = Processor(config, columns, validate=True).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    def test_decoded_trace_matches_generated(self):
        """The codec round-trip simulates identically to the original."""
        _, config = bench_configs()["nlq"]
        column = generate_trace(spec_profile("twolf"), self.N)
        clone = decode_trace(encode_trace(column))
        direct = Processor(config, column, warmup=500).run()
        decoded = Processor(config, clone, warmup=500).run()
        assert direct.fingerprint() == decoded.fingerprint()
