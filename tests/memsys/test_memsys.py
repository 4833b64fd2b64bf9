"""Tests for the memory image, caches, and hierarchy."""

import pytest

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.memimg import MemoryImage


class TestMemoryImage:
    def test_reads_zero_by_default(self):
        assert MemoryImage().read(0x1234_5670, 8) == 0

    def test_write_read_roundtrip_4(self):
        mem = MemoryImage()
        mem.write(0x100, 0xDEADBEEF, 4)
        assert mem.read(0x100, 4) == 0xDEADBEEF

    def test_write_read_roundtrip_8(self):
        mem = MemoryImage()
        mem.write(0x100, 0x0123_4567_89AB_CDEF, 8)
        assert mem.read(0x100, 8) == 0x0123_4567_89AB_CDEF
        assert mem.read(0x100, 4) == 0x89AB_CDEF
        assert mem.read(0x104, 4) == 0x0123_4567

    def test_partial_overwrite(self):
        mem = MemoryImage()
        mem.write(0x100, 0x1111_1111_2222_2222, 8)
        mem.write(0x104, 0x33, 4)
        assert mem.read(0x100, 8) == (0x33 << 32) | 0x2222_2222

    def test_equality_ignores_explicit_zeros(self):
        a, b = MemoryImage(), MemoryImage()
        a.write(0x100, 0, 4)
        assert a == b

    def test_copy_is_independent(self):
        a = MemoryImage()
        a.write(0x100, 5, 4)
        b = a.copy()
        b.write(0x100, 9, 4)
        assert a.read(0x100, 4) == 5

    def test_initial_contents(self):
        mem = MemoryImage({0x10: 3, 0x14: 4})
        assert mem.read(0x10, 8) == (4 << 32) | 3


class TestCache:
    def _small(self, assoc=2):
        # 4 sets x assoc x 64B lines.
        return Cache(CacheConfig("t", 4 * assoc * 64, assoc))

    def test_cold_miss_then_hit(self):
        cache = self._small()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1038)  # same line

    def test_lru_eviction_order(self):
        cache = self._small(assoc=2)
        # Three lines mapping to the same set (set stride = 4 * 64).
        a, b, c = 0x0, 4 * 64, 8 * 64
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is now MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.access(a)
        assert cache.access(c)
        assert not cache.access(b)

    def test_invalidate(self):
        cache = self._small()
        cache.access(0x2000)
        assert cache.invalidate(0x2000)
        assert not cache.invalidate(0x2000)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 3 * 64, 1)  # 3 sets: not a power of two



class TestHierarchy:
    def test_l1_hit_latency(self):
        hierarchy = MemoryHierarchy()
        first = hierarchy.load_access(0x5000)
        second = hierarchy.load_access(0x5000)
        assert second == hierarchy.config.l1d.latency
        assert first > second

    def test_miss_latency_ordering(self):
        hierarchy = MemoryHierarchy()
        cold = hierarchy.load_access(0x9000)  # L1+L2+memory
        assert cold == (
            hierarchy.config.l1d.latency
            + hierarchy.config.l2.latency
            + hierarchy.config.memory_latency
        )

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load_access(0x9000)
        # Touch enough conflicting lines to evict 0x9000 from the L1
        # (32KB 2-way, 64B lines -> 256 sets; stride 256*64).
        stride = 256 * 64
        for i in range(1, 3):
            hierarchy.load_access(0x9000 + i * stride)
        latency = hierarchy.load_access(0x9000)
        assert latency == hierarchy.config.l1d.latency + hierarchy.config.l2.latency

    def test_l1d_banks_interleave_by_line(self):
        hierarchy = MemoryHierarchy()  # 2 L1D banks, 64-byte lines
        assert hierarchy.load_bank(0x0) != hierarchy.load_bank(64)
        assert hierarchy.load_bank(0x0) == hierarchy.load_bank(128)
        assert hierarchy.load_bank(0x0) == hierarchy.load_bank(0x38)  # same line

    def test_invalidate_removes_from_both_levels(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load_access(0x7000)
        hierarchy.invalidate(0x7000)
        assert hierarchy.load_access(0x7000) > hierarchy.config.l1d.latency
