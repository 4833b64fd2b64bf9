"""Unit tests for the column-native trace representation."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.goldens import bench_configs
from repro.isa.codec import decode_trace, encode_trace
from repro.isa.coltrace import INST_COLUMNS, ColumnTrace
from repro.isa.golden import golden_execute
from repro.isa.inst import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    DynInst,
    TraceMeta,
    memory_signature,
)
from repro.isa.ops import ISSUE_CLASS_BY_OP, LATENCY_BY_OP, OpClass
from repro.memsys.memimg import MemoryImage
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace


def meta_oracle(trace: ColumnTrace) -> dict[str, list]:
    """``TraceMeta`` recomputed per ``DynInst`` from the ops tables: an
    independent reference for :meth:`ColumnTrace.meta`."""
    insts = trace.insts
    return {
        "kind": [
            KIND_LOAD
            if inst.is_load
            else KIND_STORE
            if inst.is_store
            else KIND_BRANCH
            if inst.is_branch
            else KIND_OTHER
            for inst in insts
        ],
        "latency": [LATENCY_BY_OP[inst.op] for inst in insts],
        "issue_class": [ISSUE_CLASS_BY_OP[inst.op] for inst in insts],
        "words": [inst.words() if inst.is_mem else () for inst in insts],
        "signature": [memory_signature(inst) if inst.is_mem else None for inst in insts],
    }


def assert_meta_matches_oracle(trace: ColumnTrace) -> None:
    meta = trace.meta()
    for field, expected in meta_oracle(trace).items():
        assert getattr(meta, field) == expected, field


def golden_oracle(trace: ColumnTrace) -> tuple[dict[int, int], set[int], MemoryImage]:
    """Program-order replay of the ``DynInst`` view on a fresh memory: an
    independent reference for :func:`golden_execute`."""
    memory = MemoryImage(trace.initial_memory)
    load_values: dict[int, int] = {}
    silent: set[int] = set()
    for inst in trace.insts:
        if inst.is_load:
            load_values[inst.seq] = memory.read(inst.addr, inst.size)
        elif inst.is_store:
            if memory.read(inst.addr, inst.size) == inst.store_value:
                silent.add(inst.seq)
            memory.write(inst.addr, inst.store_value, inst.size)
    return load_values, silent, memory


def assert_golden_matches_oracle(trace: ColumnTrace) -> None:
    result = golden_execute(trace)
    load_values, silent, memory = golden_oracle(trace)
    assert result.load_values == load_values
    assert result.silent_stores == silent
    assert result.memory == memory


def rebuilt_from_insts(trace: ColumnTrace) -> ColumnTrace:
    """Fresh columns built from ``trace``'s ``DynInst`` view, sharing no
    cached meta or hot lists with it."""
    return ColumnTrace.from_insts(
        trace.name, list(trace.insts), initial_memory=dict(trace.initial_memory)
    )


def small_insts() -> list[DynInst]:
    return [
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


def small_trace() -> ColumnTrace:
    return ColumnTrace.from_insts("small", small_insts(), initial_memory={0x1000: 7})


class TestConversion:
    def test_from_insts_round_trips_through_view(self):
        insts = small_insts()
        columns = ColumnTrace.from_insts("small", insts, initial_memory={0x1000: 7})
        assert len(columns) == 4
        assert columns.insts == insts
        assert columns.name == "small"
        assert columns.initial_memory == {0x1000: 7}

    def test_iteration_and_indexing(self):
        columns = small_trace()
        assert [inst.seq for inst in columns] == [0, 1, 2, 3]
        assert columns[2].is_load
        assert columns[3].taken is True

    def test_stats_match_object_path(self):
        trace = small_trace()
        total = len(trace.insts)
        assert trace.stats() == {
            "insts": float(total),
            "load_frac": sum(inst.is_load for inst in trace) / total,
            "store_frac": sum(inst.is_store for inst in trace) / total,
            "branch_frac": sum(inst.is_branch for inst in trace) / total,
        }

    def test_pickle_round_trip(self):
        columns = small_trace()
        clone = pickle.loads(pickle.dumps(columns))
        assert clone.insts == columns.insts
        assert clone.name == columns.name


class TestHotView:
    def test_hot_columns_are_plain_lists(self):
        columns = small_trace()
        hot = columns.hot()
        assert hot.pc == [0x100, 0x104, 0x108, 0x10C]
        assert hot.taken == [False, False, False, True]
        assert hot.srcs == [(), (0,), (0,), (2,)]
        assert columns.hot() is hot  # cached


class TestMetaAndGolden:
    def test_meta_matches_object_meta(self):
        trace = small_trace()
        assert_meta_matches_oracle(trace)
        assert trace.meta() is trace.meta()  # built once, shared
        assert trace.meta().kind == [KIND_OTHER, KIND_STORE, KIND_LOAD, KIND_BRANCH]
        assert trace.meta().words[1] == (0x1000, 0x1004)

    def test_golden_execute_matches_object_path(self):
        trace = small_trace()
        assert_golden_matches_oracle(trace)
        assert golden_execute(trace).load_values == {2: 0xAB}

    def test_signature_is_built_on_first_read(self):
        trace = generate_trace(spec_profile("gcc"), 3000)
        meta = trace.meta()
        assert meta._signature is None
        assert meta.signature == meta_oracle(trace)["signature"]
        assert meta.signature is meta._signature
        assert meta._build_signature is None

    def test_lazy_signature_length_is_checked(self):
        meta = TraceMeta(
            kind=[0], latency=[1], issue_class=[0], words=[()], signature=lambda: []
        )
        with pytest.raises(ValueError, match="equal lengths"):
            meta.signature

    def test_columns_share_one_int_per_value(self):
        """Every mention of a producer seq in ``srcs``, ``base_seq`` and
        ``store_data_seq`` is one object, and ``words``/``signature`` reuse
        the hot lists' address and base ints."""
        trace = generate_trace(spec_profile("gcc"), 3000)
        hot, meta = trace.hot(), trace.meta()
        seen: dict[int, int] = {}
        mentions = [*hot.base_seq, *hot.store_data_seq]
        mentions += [seq for srcs in hot.srcs for seq in srcs]
        for seq in mentions:
            assert seen.setdefault(seq, id(seq)) == id(seq), seq
        assert len(seen) > 300  # far past the small-int cache
        for i, words in enumerate(meta.words):
            if words:
                assert words[0] is hot.addr[i]
            if meta.signature[i] is not None:
                assert meta.signature[i][0] is hot.base_seq[i]


class TestValidate:
    def test_validate_accepts_consistent_columns(self):
        small_trace().validate()

    def test_future_producer_rejected(self):
        insts = [DynInst(seq=0, pc=0, op=OpClass.IALU, src_seqs=(0,))]
        with pytest.raises(ValueError, match="future/invalid producer"):
            ColumnTrace.from_insts("bad", insts).validate()

    def test_non_dense_seq_rejected(self):
        insts = [
            DynInst(seq=0, pc=0, op=OpClass.IALU),
            DynInst(seq=2, pc=4, op=OpClass.IALU),
        ]
        with pytest.raises(ValueError, match="inst 1 has seq 2"):
            ColumnTrace.from_insts("bad", insts).validate()

    def test_unaligned_mem_rejected(self):
        insts = [DynInst(seq=0, pc=0, op=OpClass.LOAD, addr=0x1002, size=4)]
        with pytest.raises(ValueError, match="unaligned"):
            ColumnTrace.from_insts("bad", insts).validate()

    def test_signature_collision_rejected(self):
        insts = [
            DynInst(seq=0, pc=0, op=OpClass.IALU, dst_reg=1),
            DynInst(seq=1, pc=4, op=OpClass.LOAD, addr=0x1000, size=4, base_seq=0, offset=8),
            DynInst(seq=2, pc=8, op=OpClass.LOAD, addr=0x2000, size=4, base_seq=0, offset=8),
        ]
        with pytest.raises(ValueError, match="maps to both"):
            ColumnTrace.from_insts("bad", insts).validate()

    def test_ragged_columns_rejected(self):
        columns = small_trace()
        arrays = {name: getattr(columns, name) for name, _, _ in INST_COLUMNS}
        arrays["src_offsets"] = columns.src_offsets
        arrays["src_flat"] = columns.src_flat
        arrays["op"] = arrays["op"][:2]
        with pytest.raises(ValueError, match="expected"):
            ColumnTrace("ragged", arrays)


class TestProcessorEquivalence:
    """Columns rebuilt from the ``DynInst`` view simulate bit-identically
    to the generated columns, for the live generator, the fixed kernels
    and the codec round-trip."""

    N = 4000

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_columns_match_objects_per_lsu(self, kind):
        _, config = bench_configs()[kind]
        column = generate_trace(spec_profile("gcc"), self.N)
        on_objects = Processor(
            config, rebuilt_from_insts(column), validate=True, warmup=500
        ).run()
        on_columns = Processor(config, column, validate=True, warmup=500).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    @pytest.mark.parametrize("kind", sorted(bench_configs()))
    def test_kernel_columns_match_objects_per_lsu(self, kind, spill_fill_trace):
        """Kernel traces rebuilt from their ``DynInst`` view behave identically."""
        _, config = bench_configs()[kind]
        on_objects = Processor(config, rebuilt_from_insts(spill_fill_trace), validate=True).run()
        on_columns = Processor(config, spill_fill_trace, validate=True).run()
        assert on_objects.fingerprint() == on_columns.fingerprint(), kind

    def test_decoded_trace_matches_generated(self):
        """The codec round-trip simulates identically to the original."""
        _, config = bench_configs()["nlq"]
        column = generate_trace(spec_profile("twolf"), self.N)
        clone = decode_trace(encode_trace(column))
        direct = Processor(config, column, warmup=500).run()
        decoded = Processor(config, clone, warmup=500).run()
        assert direct.fingerprint() == decoded.fingerprint()
