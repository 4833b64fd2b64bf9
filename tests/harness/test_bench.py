"""The core-throughput benchmark harness (``svw-repro bench``)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    bench_configs,
    check_fingerprints,
    compare_bench,
    load_bench,
    render_bench,
    render_gate,
    run_bench,
    write_bench,
)
from repro.pipeline.config import LSUKind
from repro.workloads.synthetic import TRACE_EPOCH


def _tiny_payload():
    return run_bench(workloads=["gcc"], n_insts=2000, repeats=1)


def test_bench_schema_and_coverage():
    payload = _tiny_payload()
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["workloads"] == ["gcc"]
    # One representative config per LSU kind, every kind covered.
    configs = bench_configs()
    assert {kind.value for kind in LSUKind} == set(configs)
    assert {r["lsu"] for r in payload["results"]} == set(configs)
    for r in payload["results"]:
        assert r["committed"] == 2000
        assert r["wall_seconds"] > 0
        assert r["insts_per_sec"] > 0
        assert len(r["stats_fingerprint"]) == 64
    # Aggregates: per kind plus "all", committed/wall consistency.
    for kind, agg in payload["aggregate"].items():
        cells = [
            r for r in payload["results"] if kind == "all" or r["lsu"] == kind
        ]
        assert agg["committed"] == sum(r["committed"] for r in cells)


def test_bench_round_trip_and_compare(tmp_path):
    payload = _tiny_payload()
    path = tmp_path / "BENCH_core.json"
    write_bench(payload, str(path))
    loaded = load_bench(str(path))
    assert loaded == json.loads(path.read_text())
    report = compare_bench(loaded, payload)
    assert "1.00x" in report
    assert "bit-identical" in report
    assert "WARNING" not in report
    assert "gcc" in render_bench(payload)


def test_bench_fingerprints_are_deterministic():
    """Two bench runs simulate identically (only wall time may differ)."""
    a = _tiny_payload()
    b = _tiny_payload()
    fp = lambda payload: [
        (r["lsu"], r["workload"], r["stats_fingerprint"], r["cycles"])
        for r in payload["results"]
    ]
    assert fp(a) == fp(b)


class TestCheckFingerprints:
    def test_identical_runs_pass(self):
        payload = _tiny_payload()
        assert check_fingerprints(payload, payload) == []

    def test_divergence_is_reported(self):
        payload = _tiny_payload()
        baseline = copy.deepcopy(payload)
        baseline["results"][0]["stats_fingerprint"] = "0" * 64
        row = payload["results"][0]
        assert check_fingerprints(baseline, payload) == [
            f"{row['lsu']}/{row['workload']}"
        ]

    def test_mismatched_budgets_rejected(self):
        payload = _tiny_payload()
        baseline = copy.deepcopy(payload)
        baseline["n_insts"] = payload["n_insts"] * 2
        with pytest.raises(ValueError, match="budget"):
            check_fingerprints(baseline, payload)

    def test_disjoint_cells_rejected(self):
        payload = _tiny_payload()
        baseline = copy.deepcopy(payload)
        for row in baseline["results"]:
            row["workload"] = "elsewhere"
        with pytest.raises(ValueError, match="no overlapping"):
            check_fingerprints(baseline, payload)

    def test_payload_records_runtime_provenance(self):
        import numpy

        payload = _tiny_payload()
        assert payload["numpy"] == numpy.__version__
        assert payload["trace_epoch"] == TRACE_EPOCH == 2

    def test_pre_epoch_snapshot_fails_with_epoch_message(self):
        """A v1-era snapshot predates the trace_epoch key entirely; the
        gate must name the deliberate break, not report every cell."""
        payload = _tiny_payload()
        baseline = copy.deepcopy(payload)
        del baseline["trace_epoch"]
        with pytest.raises(
            ValueError, match=r"epoch mismatch \(v1 snapshot vs v2 core\)"
        ):
            check_fingerprints(baseline, payload)

    def test_render_gate_fails_cleanly_across_the_break(self):
        payload = _tiny_payload()
        baseline = copy.deepcopy(payload)
        baseline["trace_epoch"] = 1
        passed, message = render_gate(baseline, payload)
        assert not passed
        assert "fingerprint epoch mismatch (v1 snapshot vs v2 core)" in message

    def test_cli_check_across_the_break_fails_without_overwriting(self, tmp_path):
        """`svw-repro bench --check V1_SNAPSHOT` across the epoch break:
        exit 1 with the epoch message, snapshot left intact."""
        from repro.harness.cli import main

        path = tmp_path / "BENCH_core.json"
        baseline = run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["nlq"])
        v1_era = copy.deepcopy(baseline)
        v1_era["trace_epoch"] = 1
        write_bench(v1_era, str(path))
        args = [
            "bench",
            "--workloads", "gcc",
            "--lsus", "nlq",
            "--insts", "1000",
            "--repeats", "1",
            "--check", str(path),
            "--out", str(path),
            "--quiet",
        ]
        assert main(args) == 1
        assert load_bench(str(path))["trace_epoch"] == 1

    def test_cli_gate_reads_baseline_before_overwriting_it(self, tmp_path):
        """Regression: `svw-repro bench --check BENCH_core.json` (no --out)
        writes the fresh payload to BENCH_core.json *before* the gate runs;
        the baseline must have been loaded first, or the gate compares the
        run to itself (always passing) while destroying the snapshot."""
        from repro.harness.cli import main

        path = tmp_path / "BENCH_core.json"
        baseline = run_bench(workloads=["gcc"], n_insts=1000, repeats=1, lsus=["nlq"])
        doctored = copy.deepcopy(baseline)
        doctored["results"][0]["stats_fingerprint"] = "0" * 64
        write_bench(doctored, str(path))
        args = [
            "bench",
            "--workloads", "gcc",
            "--lsus", "nlq",
            "--insts", "1000",
            "--repeats", "1",
            "--check", str(path),
            "--out", str(path),
            "--quiet",
        ]
        assert main(args) == 1  # divergence detected even though --out == --check
        # The failed gate must not have replaced the baseline with the
        # divergent payload (that would make an immediate re-run pass and
        # destroy the regression evidence): the doctored snapshot survives
        # and a second identical run still fails.
        assert load_bench(str(path))["results"][0]["stats_fingerprint"] == "0" * 64
        assert main(args) == 1
