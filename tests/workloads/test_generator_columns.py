"""The live generator's columns against their ``DynInst`` view, on every
shipped profile.

The generator emits column-native traces; the rest of the system also
reads them through the lazy :class:`DynInst` view (fixed-trace digests,
the codec's round-trip check) and rebuilds columns from ``DynInst`` lists
(kernels, hand-written streams).  For every shipped workload profile,
this suite pins that the two forms are the same trace:

1. **Wire identity**: columns rebuilt with ``ColumnTrace.from_insts`` from
   the view give the exact encoded wire bytes of the generated trace
   (every column, the CSR source lists, the initial memory image and the
   name), per profile x 3 seeds.
2. **Metadata and golden execution**: the per-instruction ``TraceMeta``
   and the golden functional execution computed from the columns equal
   independent per-``DynInst`` oracles (the ops tables and a
   program-order ``MemoryImage`` replay).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.codec import encode_trace
from repro.isa.coltrace import ColumnTrace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile
from repro.workloads.synthetic import _BlockGenerator, generate_trace
from tests.isa.test_coltrace import (
    assert_golden_matches_oracle,
    assert_meta_matches_oracle,
    rebuilt_from_insts,
)

INSTS = 1500
SEED_SHIFTS = (0, 1, 2)

#: Every shipped profile: the 16 SPEC2000 mixes plus the plain synthetic
#: default (the base profile every mix is derived from).
SHIPPED_PROFILES: dict[str, WorkloadProfile] = {
    name: spec_profile(name) for name in SPEC_ORDER
}
SHIPPED_PROFILES["synthetic-default"] = WorkloadProfile(name="synthetic-default")


class TestShippedProfiles:
    @pytest.mark.parametrize("seed_shift", SEED_SHIFTS)
    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_wire_bytes_identical(self, name, seed_shift):
        """encode(generated columns) == encode(columns of the object view)."""
        profile = dataclasses.replace(
            SHIPPED_PROFILES[name], seed=SHIPPED_PROFILES[name].seed + seed_shift
        )
        column = generate_trace(profile, INSTS)
        assert isinstance(column, ColumnTrace)
        rebuilt = rebuilt_from_insts(column)
        assert encode_trace(rebuilt) == encode_trace(column), (name, profile.seed)

    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_meta_identical(self, name):
        assert_meta_matches_oracle(generate_trace(SHIPPED_PROFILES[name], INSTS))

    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_golden_execution_identical(self, name):
        assert_golden_matches_oracle(generate_trace(SHIPPED_PROFILES[name], INSTS))


def test_heap_draw_bounds_use_ceiling():
    """The heap-offset candidate counts use ceiling division: ``heap_bytes``
    is only required to be a multiple of 8, so the half-heap widths need
    not divide 8 evenly and flooring would drop the last candidate."""
    profile = dataclasses.replace(
        WorkloadProfile(name="odd-heap"), heap_bytes=(1 << 14) + 8
    )
    generator = _BlockGenerator(profile, 10, 0)
    half = profile.heap_bytes // 2
    assert half % 8
    assert generator.half_heap == half
    assert generator.heap_load_n == -(-(profile.heap_bytes - half) // 8)
    assert generator.heap_store_n == -(-half // 8)
