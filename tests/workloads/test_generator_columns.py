"""Column/object consistency of the live generator on every shipped profile.

The generator emits column-native traces; the rest of the system also
reads them through the lazy :class:`DynInst` view and through object-built
:class:`Trace` instances (kernels, ingested traces).  For every shipped
workload profile, this suite pins that the two forms are the same trace:

1. **Wire identity**: re-columnizing the object view gives the exact
   encoded wire bytes of the generated trace (every column, the CSR source
   lists, wrong-path sets, the initial memory image and the name), per
   profile x 3 seeds.
2. **Metadata and golden execution**: the per-instruction ``TraceMeta``
   and the golden functional execution computed from the columns equal
   the ones computed from the objects.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.codec import encode_trace
from repro.isa.coltrace import ColumnTrace
from repro.isa.golden import golden_execute
from repro.isa.inst import Trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile
from repro.workloads.synthetic import _BlockGenerator, generate_trace

INSTS = 1500
SEED_SHIFTS = (0, 1, 2)

#: Every shipped profile: the 16 SPEC2000 mixes plus the plain synthetic
#: default (the base profile every mix is derived from).
SHIPPED_PROFILES: dict[str, WorkloadProfile] = {
    name: spec_profile(name) for name in SPEC_ORDER
}
SHIPPED_PROFILES["synthetic-default"] = WorkloadProfile(name="synthetic-default")


def object_built(columns: ColumnTrace) -> Trace:
    """A fresh ``Trace`` over the ``DynInst`` view, with no columns or meta
    attached, so anything reading it works from the objects."""
    return Trace(
        name=columns.name,
        insts=list(columns.insts),
        initial_memory=dict(columns.initial_memory),
        wrong_path_addrs=columns.wrong_path_addrs,
    )


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
        rebuilt = ColumnTrace.from_trace(object_built(column))
        assert encode_trace(rebuilt) == encode_trace(column), (name, profile.seed)

    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_meta_identical(self, name):
        column = generate_trace(SHIPPED_PROFILES[name], INSTS)
        on_objects = object_built(column).meta()
        on_columns = column.meta()
        assert on_columns.kind == on_objects.kind
        assert on_columns.latency == on_objects.latency
        assert on_columns.issue_class == on_objects.issue_class
        assert on_columns.words == on_objects.words
        assert on_columns.signature == on_objects.signature

    @pytest.mark.parametrize("name", sorted(SHIPPED_PROFILES))
    def test_golden_execution_identical(self, name):
        column = generate_trace(SHIPPED_PROFILES[name], INSTS)
        on_objects = golden_execute(object_built(column))
        on_columns = golden_execute(column)
        assert on_columns.load_values == on_objects.load_values
        assert on_columns.silent_stores == on_objects.silent_stores


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
