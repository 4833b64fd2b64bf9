"""The unified workload registry: resolution, keys, payload round-trips.

A plain profile workload keys exactly as the trace cache's own
``trace_key`` does, and every key is a pure function of the spec, the
budget and the trace epoch, in any process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fingerprint import TRACE_EPOCH
from repro.workloads.kernels import kernel_trace
from repro.workloads.mutate import MutationOp, TraceMutation
from repro.workloads.phased import PHASED_CATALOG
from repro.workloads.registry import (
    WorkloadSpec,
    generate_trace,
    resolve_workload,
    workload_key,
)
from repro.workloads.spec2000 import spec_profile
from repro.workloads.trace_cache import trace_key

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

MUTATION = TraceMutation((MutationOp(kind="alias", rate=0.3, seed=11),))


class TestResolution:
    def test_spec_name_resolves(self):
        spec = resolve_workload("gcc")
        assert spec.profile is not None
        assert spec.name == "gcc"

    def test_short_name_resolves(self):
        assert resolve_workload("perl.d").name == "perl.diffmail"

    def test_phased_catalog_name_resolves(self):
        spec = resolve_workload("hot-dynamic")
        assert spec.phased is PHASED_CATALOG["hot-dynamic"]

    def test_objects_pass_through(self):
        profile = spec_profile("mcf")
        assert resolve_workload(profile).profile is profile
        spec = WorkloadSpec.from_name("gcc")
        assert resolve_workload(spec) is spec
        phased = PHASED_CATALOG["scan-storm"]
        assert resolve_workload(phased).phased is phased

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="known names"):
            resolve_workload("not-a-workload")

    def test_names_are_the_only_string_references(self):
        """A string resolves as a catalog or SPEC2000 name, nothing else:
        a trace file path is an unknown workload."""
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("runs/cap.svwt")


class TestKeys:
    def test_profile_key_is_bit_compatible_with_legacy(self):
        """A profile workload keys as the trace cache's ``trace_key``."""
        profile = spec_profile("vortex")
        spec = WorkloadSpec.from_profile(profile)
        assert workload_key(spec, 30_000) == trace_key(profile, 30_000)

    def test_forms_key_distinctly(self):
        """Each form keys apart, and every key ends in the trace epoch."""
        n = 5000
        profile = resolve_workload("gcc")
        phased = resolve_workload("hot-static")
        mutated = profile.mutated(MUTATION)
        fixed = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=5))
        keys = {workload_key(w, n) for w in (profile, phased, mutated, fixed)}
        assert len(keys) == 4
        assert all(key.endswith(f"-e{TRACE_EPOCH}") for key in keys)

    def test_key_stable_across_processes(self):
        """Same references, fresh interpreter, identical keys."""
        script = (
            "from repro.workloads.registry import ("
            "resolve_workload, workload_key)\n"
            "from repro.workloads.mutate import MutationOp, TraceMutation\n"
            "import json\n"
            "mut = TraceMutation((MutationOp(kind='alias', rate=0.3, seed=11),))\n"
            "out = {}\n"
            "for name in ('gcc', 'hot-dynamic'):\n"
            "    spec = resolve_workload(name)\n"
            "    out[name] = workload_key(spec, 5000)\n"
            "    out[name + '+mut'] = workload_key(spec.mutated(mut), 5000)\n"
            "print(json.dumps(out))\n"
        )
        runs = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env={"PYTHONPATH": str(REPO_SRC)},
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        here = {}
        for name in ("gcc", "hot-dynamic"):
            spec = resolve_workload(name)
            here[name] = workload_key(spec, 5000)
            here[name + "+mut"] = workload_key(spec.mutated(MUTATION), 5000)
        assert runs[0] == here

    def test_fixed_trace_keys_by_content(self):
        a = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=10))
        b = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=10))
        assert workload_key(a, 100) == workload_key(b, 100)


class TestPayloads:
    def test_profile_payload_keeps_legacy_shape(self):
        payload = WorkloadSpec.from_name("gcc").to_payload()
        assert sorted(payload) == ["name", "profile"]

    @pytest.mark.parametrize("ref", ["gcc", "hot-oscillating"])
    def test_round_trip(self, ref):
        spec = resolve_workload(ref)
        clone = WorkloadSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert clone.fingerprint() == spec.fingerprint()
        assert workload_key(clone, 4000) == workload_key(spec, 4000)

    def test_mutated_round_trip(self):
        spec = resolve_workload("hot-dynamic").mutated(MUTATION)
        clone = WorkloadSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert clone.mutation == MUTATION
        assert clone.fingerprint() == spec.fingerprint()

    def test_fixed_traces_rejected_on_the_wire(self):
        spec = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=5))
        with pytest.raises(ValueError, match="regenerable"):
            spec.to_payload()


class TestMaterialize:
    def test_mutated_materialization_matches_manual(self):
        from repro.workloads.mutate import apply_mutation

        spec = resolve_workload("gcc")
        mutated = spec.mutated(MUTATION)
        direct = apply_mutation(spec.materialize(1500), MUTATION)
        via_spec = mutated.materialize(1500)
        assert via_spec.addr.tolist() == direct.addr.tolist()

    def test_generate_trace_profile_positional_compat(self):
        """The historical ``generate_trace(profile, n)`` call shape."""
        profile = spec_profile("gcc")
        from repro.workloads.synthetic import generate_trace as legacy

        a = generate_trace(profile, 1500)
        b = legacy(profile, 1500)
        assert a.addr.tolist() == b.addr.tolist()
        assert a.pc.tolist() == b.pc.tolist()

    def test_fixed_trace_rejects_seed_override(self):
        spec = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=5))
        with pytest.raises(ValueError, match="fixed trace"):
            spec.materialize(100, seed=3)


class TestSpecInvariants:
    def test_mutation_on_fixed_trace_rejected(self):
        with pytest.raises(ValueError, match="regenerable"):
            WorkloadSpec(
                name="bad",
                trace=kernel_trace("spill_fill", n_frames=5),
                mutation=MUTATION,
            )
