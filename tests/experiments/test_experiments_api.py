"""Tests for the unified experiment API: specs, backends, store, results."""

import dataclasses
import json

import pytest

from repro.experiments import (
    BatchRunner,
    ExperimentSpec,
    FigureResult,
    ResultStore,
    SerialBackend,
    WorkloadSpec,
    make_backend,
    matrix_spec,
    run_experiment,
)
from repro.harness.configs import fig5_configs, fig6_configs, spec_updates_configs
from repro.pipeline.config import eight_wide
from repro.pipeline.stats import SimStats
from repro.workloads.kernels import kernel_trace
from repro.workloads.spec2000 import SPEC_ORDER, spec_profile

INSTS = 1500


def small_configs():
    configs = fig5_configs()
    return {label: configs[label] for label in ("baseline", "NLQ")}


@pytest.fixture(scope="module")
def small_spec():
    return matrix_spec("small", small_configs(), ["gcc", "bzip2"], INSTS)


@pytest.fixture(scope="module")
def serial_result(small_spec):
    return run_experiment(small_spec, backend=SerialBackend())


class TestSpec:
    def test_builder_fluent(self):
        spec = matrix_spec(
            "built",
            small_configs(),
            ["gcc", spec_profile("bzip2")],
            n_insts=INSTS,
            warmup=100,
            validate=True,
        )
        assert spec.config_order == ["baseline", "NLQ"]
        assert spec.benchmark_names == ["gcc", "bzip2"]
        assert spec.effective_warmup == 100
        assert spec.validate

    def test_spec_is_hashable_and_comparable(self, small_spec):
        twin = matrix_spec("small", small_configs(), ["gcc", "bzip2"], INSTS)
        assert small_spec == twin
        assert hash(small_spec) == hash(twin)
        assert small_spec != matrix_spec("small", small_configs(), ["gcc"], INSTS)

    def test_cells_cover_matrix_in_order(self, small_spec):
        cells = small_spec.cells()
        assert [(c.workload.name, c.config_label) for c in cells] == [
            ("gcc", "baseline"),
            ("gcc", "NLQ"),
            ("bzip2", "baseline"),
            ("bzip2", "NLQ"),
        ]
        assert all(c.warmup == INSTS // 4 for c in cells)

    def test_default_warmup_is_quarter(self, small_spec):
        assert small_spec.effective_warmup == INSTS // 4

    def test_none_benchmarks_expand_to_suite(self):
        spec = matrix_spec("full", small_configs(), None, INSTS)
        assert spec.benchmark_names == SPEC_ORDER

    def test_short_names_resolve(self):
        spec = matrix_spec("short", small_configs(), ["perl.d"], INSTS)
        assert spec.benchmark_names == ["perl.diffmail"]

    def test_baseline_must_exist(self):
        with pytest.raises(ValueError, match="baseline"):
            matrix_spec("bad", small_configs(), ["gcc"], INSTS, baseline="nope")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(
                name="dup",
                configs=(("baseline", eight_wide()), ("baseline", eight_wide())),
                workloads=(WorkloadSpec.from_name("gcc"),),
            )

    def test_workload_needs_exactly_one_base(self):
        with pytest.raises(ValueError, match="exactly one of profile"):
            WorkloadSpec(name="empty")


class TestFingerprints:
    def test_identical_specs_share_cell_fingerprints(self, small_spec):
        twin = matrix_spec("renamed", small_configs(), ["gcc", "bzip2"], INSTS)
        ours = [c.fingerprint() for c in small_spec.cells()]
        theirs = [c.fingerprint() for c in twin.cells()]
        assert ours == theirs  # experiment name is display metadata

    def test_budget_changes_fingerprint(self, small_spec):
        other = dataclasses.replace(small_spec, n_insts=INSTS * 2)
        assert small_spec.cells()[0].fingerprint() != other.cells()[0].fingerprint()

    def test_config_name_is_not_identity(self):
        a, b = eight_wide("one"), eight_wide("two")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != eight_wide("one", store_issue=1).fingerprint()

    def test_trace_workloads_fingerprint_by_content(self):
        trace = kernel_trace("spill_fill", n_frames=20)
        a = WorkloadSpec.from_trace("k", trace)
        b = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=20))
        c = WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=21))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestBackendParity:
    def test_batch_runner_matches_serial_bitwise(self, small_spec, serial_result):
        pooled = run_experiment(small_spec, backend=BatchRunner(jobs=2))
        for benchmark in small_spec.benchmark_names:
            for config in small_spec.config_order:
                assert (
                    pooled.stats[benchmark][config].to_dict()
                    == serial_result.stats[benchmark][config].to_dict()
                ), (benchmark, config)

    def test_make_backend_dispatch(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        backend = make_backend(3)
        assert isinstance(backend, BatchRunner) and backend.jobs == 3

    def test_trace_workloads_run(self):
        trace = kernel_trace("spill_fill", n_frames=50)
        spec = matrix_spec(
            "kernel",
            small_configs(),
            [WorkloadSpec.from_trace("spill_fill", trace)],
            n_insts=INSTS,
            warmup=0,  # count every committed instruction
        )
        result = run_experiment(spec)
        assert result.stats["spill_fill"]["NLQ"].committed == len(trace)


class TestResultStore:
    def test_cold_store_misses_then_fills(self, small_spec, serial_result, tmp_path):
        store = ResultStore(tmp_path)
        result = run_experiment(small_spec, store=store)
        assert store.misses == 4 and store.hits == 0
        assert len(store) == 4
        assert result.to_dict() == serial_result.to_dict()

    def test_warm_store_runs_zero_simulations(
        self, small_spec, serial_result, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        run_experiment(small_spec, store=store)

        def forbidden(self):
            raise AssertionError("Processor.run called despite a warm store")

        monkeypatch.setattr("repro.pipeline.processor.Processor.run", forbidden)
        result = run_experiment(small_spec, store=store)
        assert store.hits == 4
        assert result.to_dict() == serial_result.to_dict()

    def test_overlapping_sweep_shares_cells(self, small_spec, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(small_spec, store=store)
        wider = matrix_spec("wider", small_configs(), ["gcc", "bzip2", "twolf"], INSTS)
        run_experiment(wider, store=store)
        assert store.hits == 4  # gcc/bzip2 cells reused across sweeps
        assert len(store) == 6

    def test_corrupt_entry_is_a_miss(self, small_spec, tmp_path):
        store = ResultStore(tmp_path)
        request = small_spec.cells()[0]
        store.path_for(request).write_text("{not json")
        assert store.load(request) is None
        assert store.misses == 1

    def test_budget_change_misses(self, small_spec, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(small_spec, store=store)
        bigger = dataclasses.replace(small_spec, n_insts=INSTS * 2)
        assert store.load(bigger.cells()[0]) is None

    def test_spec_updates_speculative_is_fig6s_svw_upd_cell(self, tmp_path):
        """Section 3.6's ``speculative`` machine is fig6's ``+SVW+UPD``: a
        store filled by fig6 serves it without a simulation."""
        upd = {"+SVW+UPD": fig6_configs()["+SVW+UPD"]}
        fig6 = matrix_spec("fig6", upd, ["gcc"], INSTS, baseline="+SVW+UPD")
        speculative = {"speculative": spec_updates_configs()["speculative"]}
        spec_updates = matrix_spec(
            "spec_updates", speculative, ["gcc"], INSTS, baseline="speculative"
        )
        assert fig6.cells()[0].fingerprint() == spec_updates.cells()[0].fingerprint()
        store = ResultStore(tmp_path)
        run_experiment(fig6, store=store)
        warm = run_experiment(spec_updates, store=store)
        assert store.hits == 1 and len(store) == 1
        assert warm.stats["gcc"]["speculative"].config_name == "speculative"

    def test_hit_carries_the_requesting_configs_name(self, tmp_path):
        """Configs that differ only in name share a stored cell; a hit is
        stamped with the asking config's name, exactly as a cold run."""
        base = small_configs()["baseline"]
        first = matrix_spec("first", {"baseline": base}, ["gcc"], INSTS)
        second = matrix_spec(
            "second", {"baseline": base.derive("renamed")}, ["gcc"], INSTS
        )
        store = ResultStore(tmp_path)
        run_experiment(first, store=store)
        warm = run_experiment(second, store=store)
        assert store.hits == 1
        assert warm.stats["gcc"]["baseline"].config_name == "renamed"
        assert warm.to_dict() == run_experiment(second).to_dict()


class TestSerialization:
    def test_sim_stats_round_trip(self, serial_result):
        stats = serial_result.stats["gcc"]["NLQ"]
        clone = SimStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.dispatch_stalls is not stats.dispatch_stalls

    def test_figure_result_round_trip_through_json(self, serial_result):
        payload = json.loads(json.dumps(serial_result.to_dict()))
        clone = FigureResult.from_dict(payload)
        assert clone.to_dict() == serial_result.to_dict()
        assert clone.avg_speedup_pct("NLQ") == serial_result.avg_speedup_pct("NLQ")

    def test_machine_config_round_trip(self):
        for config in fig5_configs().values():
            assert type(config).from_dict(config.to_dict()) == config

    def test_profile_round_trip(self):
        profile = spec_profile("vortex")
        assert type(profile).from_dict(profile.to_dict()) == profile


class TestCLI:
    def test_jobs_cache_and_json_flags(self, tmp_path, capsys):
        from repro.harness.cli import main

        json_path = tmp_path / "out.json"
        argv = [
            "fig5",
            "--insts", "1500",
            "--benchmarks", "gzip",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(json_path),
            "--quiet",
        ]
        assert main(argv) == 0
        payload = json.loads(json_path.read_text())
        first = FigureResult.from_dict(payload["fig5"])
        assert first.benchmarks == ["gzip"]

        capsys.readouterr()
        assert main(argv) == 0  # warm cache, identical output
        second = FigureResult.from_dict(json.loads(json_path.read_text())["fig5"])
        assert second.to_dict() == first.to_dict()
