"""Tests for the synthetic trace generator."""

import dataclasses
import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from repro.isa.codec import encode_trace
from repro.isa.coltrace import INST_COLUMNS
from repro.isa.ops import OpClass
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import SPEC2000_PROFILES, SPEC_ORDER, spec_profile
from repro.workloads.synthetic import (
    BLOCK_SLOTS,
    FORWARD_BASE,
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_BASE,
    _byte_chunk,
    generate_trace,
)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(spec_profile("gcc"), 3000)
        b = generate_trace(spec_profile("gcc"), 3000)
        assert [i.addr for i in a.insts] == [i.addr for i in b.insts]
        assert [i.pc for i in a.insts] == [i.pc for i in b.insts]

    def test_one_wide_draw_consumes_four_narrow_draws(self):
        """The generator retires four per-slot draws as one discarded
        ``random(4 * B)``: it yields the same doubles and leaves the stream
        where four ``random(B)`` calls did, so every later draw is kept."""
        for block in (0, 1, 7):
            seq = np.random.SeedSequence(entropy=12345, spawn_key=(block,))
            wide = np.random.Generator(np.random.PCG64(seq))
            narrow = np.random.Generator(np.random.PCG64(seq))
            retired = np.concatenate([narrow.random(BLOCK_SLOTS) for _ in range(4)])
            assert np.array_equal(wide.random(4 * BLOCK_SLOTS), retired)
            assert np.array_equal(wide.random(BLOCK_SLOTS), narrow.random(BLOCK_SLOTS))

    def test_different_seed_different_trace(self):
        a = generate_trace(spec_profile("gcc"), 3000, seed=1)
        b = generate_trace(spec_profile("gcc"), 3000, seed=2)
        assert [i.addr for i in a.insts] != [i.addr for i in b.insts]

    def test_prefix_property(self):
        """A shorter trace is a prefix of a longer one (same seed)."""
        short = generate_trace(spec_profile("twolf"), 1500)
        long = generate_trace(spec_profile("twolf"), 3000)
        assert [i.addr for i in short.insts] == [i.addr for i in long.insts[:1500]]


class TestStructure:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(spec_profile("vortex"), 8000)

    def test_validates(self, trace):
        trace.validate()  # raises on inconsistency

    def test_mix_tracks_profile(self, trace):
        profile = spec_profile("vortex")
        stats = trace.stats()
        assert stats["load_frac"] == pytest.approx(profile.load_frac, abs=0.08)
        assert stats["store_frac"] == pytest.approx(profile.store_frac, abs=0.05)

    def test_forwarding_pairs_exist(self, trace):
        """Some loads read addresses written by recent stores."""
        recent = {}
        pairs = 0
        for inst in trace.insts:
            if inst.op is OpClass.STORE:
                recent[inst.addr] = inst.seq
            elif inst.op is OpClass.LOAD and inst.addr in recent:
                if inst.seq - recent[inst.addr] < 128:
                    pairs += 1
        assert pairs > 50

    def test_regions_used(self, trace):
        addrs = [i.addr for i in trace.insts if i.is_mem]
        for base in (STACK_BASE, GLOBAL_BASE, HEAP_BASE, FORWARD_BASE):
            assert any(base <= a < base + 0x1000_0000 for a in addrs), hex(base)

    def test_redundant_loads_share_signatures(self, trace):
        """RLE candidates: loads repeating (base producer, offset)."""
        seen = set()
        repeats = 0
        for inst in trace.insts:
            if inst.op is OpClass.LOAD and inst.base_seq >= 0:
                key = (inst.base_seq, inst.offset, inst.size)
                if key in seen:
                    repeats += 1
                seen.add(key)
        assert repeats > 100


class TestAmbiguousStoreSignatures:
    def test_ambiguous_stores_keep_signatures_one_to_one(self):
        """Regression: two ambiguous stores sharing a base load but targeting
        different regions used to collide in (base, offset) signature space,
        making ColumnTrace.validate (and, through it, every property test that
        generates ambiguity-heavy workloads) fail probabilistically."""
        profile = dataclasses.replace(
            WorkloadProfile(name="amb"),
            ambiguous_store_frac=0.2,
            collision_frac=0.0,
            store_frac=0.18,
            load_frac=0.3,
            global_frac=0.35,
            stack_frac=0.2,
            stream_frac=0.0,
            heap_bytes=1 << 10,
            global_words=16,
            seed=5,
        )
        trace = generate_trace(profile, 900)  # raised ValueError before the fix
        signatures = {}
        for inst in trace.insts:
            if inst.is_mem and inst.base_seq >= 0:
                addr = signatures.setdefault((inst.base_seq, inst.offset), inst.addr)
                assert addr == inst.addr


class TestProfiles:
    def test_all_sixteen_runs_present(self):
        assert len(SPEC2000_PROFILES) == 16
        assert set(SPEC_ORDER) == set(SPEC2000_PROFILES)

    @pytest.mark.parametrize("name", SPEC_ORDER)
    def test_profiles_validate(self, name):
        SPEC2000_PROFILES[name].validate()

    def test_short_name_lookup(self):
        assert spec_profile("perl.d").name == "perl.diffmail"
        assert spec_profile("eon.c").name == "eon.cook"

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            spec_profile("spice")

    def test_invalid_profile_caught(self):
        bad = dataclasses.replace(
            WorkloadProfile(name="bad"), load_frac=0.9, store_frac=0.9
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_bad_region_mix_caught(self):
        bad = dataclasses.replace(
            WorkloadProfile(name="bad"), stack_frac=0.6, global_frac=0.6
        )
        with pytest.raises(ValueError, match="region"):
            bad.validate()

    def test_generator_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_trace(spec_profile("gcc"), 0)

    @pytest.mark.parametrize("values", [[4, 260], [1, -1]])
    def test_byte_column_out_of_range_is_caught(self, values):
        """Byte columns are narrowed per block, before the self-check reads
        them, so a value that would wrap (260 -> 4) must raise there."""
        with pytest.raises(ValueError, match="size value outside a byte"):
            _byte_chunk(np.array(values, dtype=np.int64), "size")
        assert _byte_chunk(np.array([4, 255]), "size").tolist() == [4, 255]


def column_digest(trace) -> str:
    """Digest of every instruction column, the CSR source lists and the
    initial memory image, by value: no codec byte enters it."""
    h = hashlib.sha256()
    for name in [name for name, _, _ in INST_COLUMNS] + ["src_offsets", "src_flat"]:
        h.update(f"{name}={getattr(trace, name).tolist()};".encode())
    h.update(repr(sorted(trace.initial_memory.items())).encode())
    return h.hexdigest()[:16]


class TestMultiBlockBudgets:
    """Budgets of several generator blocks, which the golden table (small
    budgets) does not reach."""

    @pytest.mark.parametrize(
        "n_insts,columns,encoded",
        [
            (20_000, "e0ff66cab6192a25", "896912810700dd4f"),
            (100_000, "607a7eb9a1da9cb4", "0910e4670fa5e8c2"),
        ],
    )
    def test_encoded_trace_is_pinned(self, n_insts, columns, encoded):
        """``columns`` pins the instruction stream itself and moves only with
        the generator; ``encoded`` also moves with the codec's layout."""
        trace = generate_trace(spec_profile("gcc"), n_insts)
        assert column_digest(trace) == columns
        assert hashlib.sha256(encode_trace(trace)).hexdigest()[:16] == encoded

    def test_generation_peak_bytes_per_inst(self):
        """Generation finalizes one column at a time: at 100k insts the
        traced peak is ~160 B/inst (it was ~310 while every int64 column
        was concatenated before any was narrowed)."""
        n_insts = 100_000
        generate_trace(spec_profile("gcc"), 2000)  # imports and caches first
        tracemalloc.start()
        try:
            generate_trace(spec_profile("gcc"), n_insts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_inst = peak / n_insts
        assert per_inst < 240, (
            f"generation peaked at {per_inst:.1f} B/inst (bound 240) "
            f"on Python {sys.version}"
        )
