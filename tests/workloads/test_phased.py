"""Phase-structured workloads: catalog, composition invariants, budgets.

The phased trace identity -- one ``SimStats.fingerprint()`` per catalog
class x LSU kind -- is pinned in the golden table (``tests/goldens.json``,
read by ``tests/harness/test_goldens.py``).  Any change to the phase
composer (segment seeding, producer shifting, budget split) or to a
catalog definition moves those rows and must be a deliberate epoch bump.
"""

from __future__ import annotations

import pytest

from repro.isa.inst import NO_PRODUCER
from repro.workloads.phased import (
    PHASE_KINDS,
    PHASED_CATALOG,
    PhasedWorkload,
    generate_phased_trace,
    split_budget,
)
from repro.workloads.spec2000 import spec_profile

N = 4000


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate_phased_trace(PHASED_CATALOG[name], N)
        for name in PHASED_CATALOG
    }


class TestCatalog:
    def test_one_class_per_taxonomy_kind(self):
        assert sorted(w.kind for w in PHASED_CATALOG.values()) == sorted(PHASE_KINDS)

    def test_catalog_validates(self):
        for workload in PHASED_CATALOG.values():
            workload.validate()

    def test_round_trip(self):
        for workload in PHASED_CATALOG.values():
            clone = PhasedWorkload.from_dict(workload.to_dict())
            assert clone == workload
            assert clone.fingerprint() == workload.fingerprint()


class TestComposition:
    def test_traces_are_valid_and_sized(self, traces):
        for name, trace in traces.items():
            trace.validate()
            assert len(trace) == N, name

    def test_deterministic(self):
        workload = PHASED_CATALOG["hot-oscillating"]
        a = generate_phased_trace(workload, 2000)
        b = generate_phased_trace(workload, 2000)
        assert a.pc.tolist() == b.pc.tolist()
        assert a.addr.tolist() == b.addr.tolist()

    def test_seed_override_changes_stream(self):
        workload = PHASED_CATALOG["hot-dynamic"]
        a = generate_phased_trace(workload, 2000)
        b = generate_phased_trace(workload, 2000, seed=999)
        assert a.addr.tolist() != b.addr.tolist()

    def test_no_cross_segment_producers(self):
        """Producer references never cross a segment boundary (a phase
        change behaves like a call into fresh code)."""
        workload = PHASED_CATALOG["hot-dynamic"]
        n = 3000
        budgets = split_budget(
            [w for _, w in workload.segments()], n
        )
        trace = generate_phased_trace(workload, n)
        bounds = []
        start = 0
        for budget in budgets:
            bounds.append((start, start + budget))
            start += budget
        segment_of = {}
        for index, (lo, hi) in enumerate(bounds):
            for seq in range(lo, hi):
                segment_of[seq] = index
        offsets = trace.src_offsets.tolist()
        flat = trace.src_flat.tolist()
        for seq in range(n):
            for ref in (
                int(trace.base_seq[seq]),
                int(trace.store_data_seq[seq]),
                *flat[offsets[seq] : offsets[seq + 1]],
            ):
                if ref == NO_PRODUCER:
                    continue
                assert ref < seq
                assert segment_of[ref] == segment_of[seq], (seq, ref)

    def test_single_phase_matches_plain_generator_structure(self):
        """The degenerate static case still goes through segment seeding,
        so it differs from the raw profile stream -- but stays valid and
        exactly sized (the property the taxonomy needs)."""
        phased = PhasedWorkload(
            name="solo",
            kind="static",
            phases=((spec_profile("gcc"), 1.0),),
            seed=7,
        )
        trace = generate_phased_trace(phased, 1500)
        trace.validate()
        assert len(trace) == 1500


class TestSplitBudget:
    def test_proportional_and_exact(self):
        out = split_budget([3.0, 1.0], 4000)
        assert sum(out) == 4000
        assert out[0] == 3000

    def test_every_segment_gets_at_least_one(self):
        out = split_budget([1000.0, 0.001, 0.001], 100)
        assert sum(out) == 100
        assert min(out) >= 1

    def test_too_small_budget_rejected(self):
        with pytest.raises(ValueError, match="cannot cover"):
            split_budget([1.0, 1.0, 1.0], 2)

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="unknown phase kind"):
            PhasedWorkload(
                name="x", kind="nope", phases=((spec_profile("gcc"), 1.0),)
            ).validate()
        with pytest.raises(ValueError, match="at least one phase"):
            PhasedWorkload(name="x", kind="static", phases=()).validate()
        with pytest.raises(ValueError, match="must be > 0"):
            PhasedWorkload(
                name="x", kind="static", phases=((spec_profile("gcc"), 0.0),)
            ).validate()
