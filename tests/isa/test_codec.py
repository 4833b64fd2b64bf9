"""The trace codec: exact round-trips, corruption detection, derived metadata."""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.codec import (
    CODEC_VERSION,
    MAGIC,
    TraceCodecError,
    decode_trace,
    encode_trace,
    roundtrip_equal,
)
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import NO_PRODUCER, DynInst, TraceMeta
from repro.isa.ops import OpClass
from repro.workloads.kernels import kernel_trace
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile
from repro.workloads.synthetic import generate_trace
from tests.isa.test_coltrace import assert_meta_matches_oracle


def all_opclass_trace() -> ColumnTrace:
    """A hand-built trace with at least one instruction of every OpClass,
    both memory sizes, untrackable bases, 64-bit store values, negative
    offsets, and an initial memory image."""
    insts = [
        DynInst(seq=0, pc=0x100, op=OpClass.IALU, dst_reg=3),
        DynInst(seq=1, pc=0x104, op=OpClass.IMUL, src_seqs=(0,), dst_reg=4),
        DynInst(seq=2, pc=0x108, op=OpClass.FALU, src_seqs=(1,), dst_reg=5),
        DynInst(
            seq=3,
            pc=0x10C,
            op=OpClass.STORE,
            src_seqs=(0,),
            addr=0x1000,
            size=8,
            store_value=(1 << 64) - 1,  # forces the wide store_value column
            store_data_seq=0,
            base_seq=0,
            offset=-16,  # negative offsets survive the signed column
        ),
        DynInst(
            seq=4,
            pc=0x110,
            op=OpClass.LOAD,
            src_seqs=(3,),
            dst_reg=6,
            addr=0x1000,
            size=4,
            base_seq=0,
            offset=-16,
        ),
        DynInst(
            seq=5,
            pc=0x114,
            op=OpClass.LOAD,
            dst_reg=7,
            addr=0x2000,
            size=8,
            base_seq=NO_PRODUCER,  # untrackable base -> signature None
            offset=0,
        ),
        DynInst(seq=6, pc=0x118, op=OpClass.BRANCH, src_seqs=(4,), taken=True),
        DynInst(seq=7, pc=0x11C, op=OpClass.NOP),
        DynInst(seq=8, pc=0x120, op=OpClass.BRANCH, taken=False),
    ]
    return ColumnTrace.from_insts(
        "all-ops",
        insts,
        initial_memory={0x2000: (1 << 63) + 17, 0x1000: 42, 0x2004: 7},
    )


def assert_meta_equal(a: TraceMeta, b: TraceMeta) -> None:
    assert a.kind == b.kind
    assert a.latency == b.latency
    assert a.issue_class == b.issue_class
    assert a.words == b.words
    assert a.signature == b.signature


class TestRoundTrip:
    def test_every_opclass_round_trips_exactly(self):
        trace = all_opclass_trace()
        clone = decode_trace(encode_trace(trace))
        assert roundtrip_equal(trace, clone)
        assert clone.insts == trace.insts
        # dict *order* is preserved, not just content
        assert list(clone.initial_memory.items()) == list(trace.initial_memory.items())
        # bools stay bools (a 1 would change stable digests)
        assert clone.insts[6].taken is True
        assert clone.insts[8].taken is False
        assert_meta_equal(trace.meta(), clone.meta())
        assert_meta_matches_oracle(clone)

    def test_empty_trace(self):
        trace = ColumnTrace.from_insts("empty", [])
        clone = decode_trace(encode_trace(trace))
        assert roundtrip_equal(trace, clone)
        assert len(clone) == 0
        assert clone.meta().kind == []

    def test_kernel_trace(self):
        trace = kernel_trace("spill_fill", n_frames=40)
        clone = decode_trace(encode_trace(trace))
        assert roundtrip_equal(trace, clone)
        assert_meta_equal(trace.meta(), clone.meta())

    def test_decode_accepts_memoryview(self):
        trace = all_opclass_trace()
        data = bytearray(encode_trace(trace))
        clone = decode_trace(memoryview(data))
        assert roundtrip_equal(trace, clone)

    def test_decoded_meta_builds_no_dyninsts(self, monkeypatch):
        trace = all_opclass_trace()
        expected = trace.meta()
        data = encode_trace(trace)

        def forbidden(self):
            raise AssertionError("DynInst view built on decode")

        monkeypatch.setattr(ColumnTrace, "insts", property(forbidden))
        clone = decode_trace(data)
        assert_meta_equal(clone.meta(), expected)  # derived from the columns

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_fuzz_round_trip_over_profile_seeds(self, seed):
        for name in SPEC_ORDER[seed % 3 :: 4]:
            profile = dataclasses.replace(spec_profile(name), seed=seed)
            trace = generate_trace(profile, 1_200)
            clone = decode_trace(encode_trace(trace))
            assert roundtrip_equal(trace, clone), (name, seed)
            assert_meta_equal(trace.meta(), clone.meta())


class TestCorruption:
    def test_bad_magic(self):
        data = bytearray(encode_trace(all_opclass_trace()))
        data[0] ^= 0xFF
        with pytest.raises(TraceCodecError, match="magic"):
            decode_trace(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_trace(all_opclass_trace()))
        assert data[:4] == MAGIC
        data[4] = (CODEC_VERSION + 1) & 0xFF
        with pytest.raises(TraceCodecError, match="version"):
            decode_trace(bytes(data))

    def test_flipped_payload_byte_fails_checksum(self):
        data = bytearray(encode_trace(all_opclass_trace()))
        data[-3] ^= 0x40
        with pytest.raises(TraceCodecError, match="checksum"):
            decode_trace(bytes(data))

    def test_truncation(self):
        data = encode_trace(all_opclass_trace())
        for cut in (2, len(data) // 2, len(data) - 1):
            with pytest.raises(TraceCodecError):
                decode_trace(data[:cut])

    def test_json_valid_but_incomplete_header_is_a_codec_error(self):
        # A header that parses as JSON but lacks required fields (e.g. a
        # dev build that changed the schema without bumping CODEC_VERSION)
        # must surface as TraceCodecError so cache layers treat it as a
        # miss, never as a stray KeyError crashing the sweep.
        import json as json_mod
        import struct as struct_mod

        from repro.isa.codec import _HEADER_FMT

        header = json_mod.dumps({"name": "x", "columns": []}).encode()
        data = struct_mod.pack(_HEADER_FMT, MAGIC, CODEC_VERSION, len(header)) + header
        with pytest.raises(TraceCodecError, match="missing"):
            decode_trace(data)

    def test_verify_encoded_accepts_good_rejects_bad(self):
        from repro.isa.codec import verify_encoded

        data = bytearray(encode_trace(all_opclass_trace()))
        verify_encoded(bytes(data))  # no exception, no materialization
        data[-3] ^= 0x40
        with pytest.raises(TraceCodecError, match="checksum"):
            verify_encoded(bytes(data))

    def test_trailing_padding_is_tolerated(self):
        # Shared-memory segments round up to page size; padding must not
        # break the checksum.
        data = encode_trace(all_opclass_trace())
        clone = decode_trace(data + b"\x00" * 4096)
        assert roundtrip_equal(all_opclass_trace(), clone)


class TestOneVersion:
    """The decoder reads exactly ``CODEC_VERSION``; an older frame is a
    codec error, which the trace cache treats as a miss."""

    def test_v2_frame_is_rejected(self):
        data = bytearray(encode_trace(all_opclass_trace()))
        assert data[4] == CODEC_VERSION == 4
        data[4] = 2
        with pytest.raises(TraceCodecError, match="version 2"):
            decode_trace(bytes(data))

    def test_v3_frame_is_rejected(self):
        """Version 3 frames carried per-branch address sets after the
        instruction columns; this decoder does not read that layout."""
        data = bytearray(encode_trace(all_opclass_trace()))
        data[4] = CODEC_VERSION - 1
        with pytest.raises(TraceCodecError, match="version 3"):
            decode_trace(bytes(data))

    def test_v2_frame_in_the_trace_cache_is_regenerated(self, tmp_path):
        from repro.experiments.traces import TraceProvider
        from repro.workloads.registry import WorkloadSpec, workload_key
        from repro.workloads.trace_cache import TraceCache

        workload = WorkloadSpec.from_name("gcc")
        trace = generate_trace(spec_profile("gcc"), 800)
        v2_frame = bytearray(encode_trace(trace))
        v2_frame[4] = 2
        cache = TraceCache(tmp_path)
        cache.save(workload_key(workload, 800), bytes(v2_frame))
        provider = TraceProvider(cache)
        assert roundtrip_equal(provider.trace(workload, 800), trace)
        assert provider.generations == 1 and provider.disk_hits == 0

    def test_meta_columns_are_not_on_the_wire(self):
        import json as json_mod
        import struct as struct_mod

        from repro.isa.codec import _HEADER_FMT, _HEADER_SIZE

        data = encode_trace(all_opclass_trace())
        _, _, header_len = struct_mod.unpack_from(_HEADER_FMT, data)
        header = json_mod.loads(data[_HEADER_SIZE : _HEADER_SIZE + header_len])
        assert not [name for name, _, _ in header["columns"] if name.startswith("meta_")]


class TestMetaHooks:
    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="equal lengths"):
            TraceMeta(
                kind=[0, 0], latency=[1], issue_class=[0, 0], words=[(), ()],
                signature=lambda: [None, None],
            )
