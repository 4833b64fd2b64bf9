"""The sweep-throughput benchmark harness (``svw-repro bench-sweep``)."""

from __future__ import annotations

import json

import pytest

from repro.harness.bench import load_bench, run_bench, write_bench
from repro.harness.bench_sweep import (
    MODE_ORDER,
    SWEEP_SCHEMA_VERSION,
    compare_sweep_bench,
    render_sweep_bench,
    run_sweep_bench,
    sweep_configs,
)


@pytest.fixture(scope="module")
def tiny_payload():
    return run_sweep_bench(workloads=["gcc"], n_insts=1200, jobs=2, repeats=1)


def test_schema_and_mode_coverage(tiny_payload):
    payload = tiny_payload
    assert payload["schema_version"] == SWEEP_SCHEMA_VERSION
    assert set(payload["modes"]) == set(MODE_ORDER)
    assert payload["workloads"] == ["gcc"]
    assert payload["configs"] == list(sweep_configs())
    assert payload["n_cells"] == len(sweep_configs()) == len(payload["cells"])
    for mode, row in payload["modes"].items():
        assert row["wall_seconds"] > 0, mode
        assert row["cells_per_sec"] > 0, mode
    for cell in payload["cells"]:
        assert len(cell["stats_fingerprint"]) == 64


def test_all_backends_bit_identical(tiny_payload):
    assert tiny_payload["equivalence"]["identical"], tiny_payload["equivalence"]


def test_payload_records_runtime_provenance(tiny_payload):
    import numpy

    from repro.workloads.synthetic import TRACE_EPOCH

    assert tiny_payload["numpy"] == numpy.__version__
    assert tiny_payload["trace_epoch"] == TRACE_EPOCH


def test_generation_amortized_across_modes(tiny_payload):
    """Every mode shares one trace cache: one generation for the whole
    benchmark, however many repeats (a serial backend's provider outlives
    a run, so its cumulative counter must not be summed per repeat)."""
    repeated = run_sweep_bench(workloads=["gcc"], n_insts=1200, jobs=2, repeats=2)
    for payload in (tiny_payload, repeated):
        modes = payload["modes"]
        generations = sum(modes[mode]["trace_generations"] for mode in MODE_ORDER)
        assert generations == len(payload["workloads"]), payload["repeats"]


def test_speedups_present(tiny_payload):
    speedups = tiny_payload["speedups"]
    assert set(speedups) == {"batch_vs_serial"}
    assert all(value > 0 for value in speedups.values())


def test_trace_generation_measures_live_generator(tiny_payload):
    generation = tiny_payload["trace_generation"]
    assert set(generation) == {"n_insts", "workloads", "insts_per_sec"}
    assert generation["insts_per_sec"] > 0


def test_render_write_load_compare(tiny_payload, tmp_path):
    path = tmp_path / "BENCH_sweep.json"
    write_bench(tiny_payload, str(path))
    loaded = load_bench(str(path), SWEEP_SCHEMA_VERSION)
    assert loaded == json.loads(path.read_text())
    rendered = render_sweep_bench(loaded)
    assert "bit-identical" in rendered
    assert "batch" in rendered
    report = compare_sweep_bench(loaded, tiny_payload)
    assert "1.00x" in report
    assert "WARNING" not in report


def test_load_rejects_other_schemas(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 999}))
    with pytest.raises(ValueError, match="schema"):
        load_bench(str(path), SWEEP_SCHEMA_VERSION)


class TestRemoteMode:
    def test_remote_mode_is_fingerprint_checked_and_identical(self):
        from repro.experiments import WorkerAgent

        with WorkerAgent() as a, WorkerAgent() as b:
            payload = run_sweep_bench(
                workloads=["gcc"],
                n_insts=1200,
                jobs=2,
                repeats=1,
                remote_workers=[a.address, b.address],
            )
        assert set(payload["modes"]) == set(MODE_ORDER) | {"remote"}
        assert payload["equivalence"]["identical"], payload["equivalence"]
        assert payload["remote_workers"] == [a.address, b.address]
        assert payload["speedups"]["remote_vs_serial"] > 0
        rendered = render_sweep_bench(payload)
        assert "remote" in rendered
        assert "bit-identical" in rendered

    def test_without_workers_no_remote_mode(self, tiny_payload):
        assert "remote" not in tiny_payload["modes"]
        assert "remote_vs_serial" not in tiny_payload["speedups"]
        assert tiny_payload["remote_workers"] == []


class TestSkipObservability:
    def test_bench_rows_carry_skip_counters(self):
        from repro.harness.bench import render_bench

        payload = run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["nlq"])
        row = payload["results"][0]
        assert row["skip_jumps"] > 0
        assert row["skipped_cycles"] >= row["skip_jumps"]
        assert sum(row["wakeup_causes"].values()) == row["skip_jumps"]
        rendered = render_bench(payload)
        assert "skip%" in rendered
        assert "skip-ahead:" in rendered

    def test_render_tolerates_pre_skip_snapshots(self):
        from repro.harness.bench import render_bench

        payload = run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["nlq"])
        for row in payload["results"]:
            for key in ("skip_jumps", "skipped_cycles", "wakeup_causes"):
                del row[key]
        rendered = render_bench(payload)
        assert "skip-ahead:" not in rendered


class TestBenchFilters:
    def test_lsus_filter_narrows_matrix(self):
        payload = run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["nlq"])
        assert {r["lsu"] for r in payload["results"]} == {"nlq"}
        assert payload["workloads"] == ["gcc"]
        assert set(payload["aggregate"]) == {"nlq", "all"}

    def test_unknown_lsu_rejected(self):
        with pytest.raises(ValueError, match="unknown LSU"):
            run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["vliw"])
