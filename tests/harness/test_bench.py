"""The core-throughput benchmark harness (``svw-repro bench``)."""

from __future__ import annotations

import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    STAGES,
    bench_configs,
    compare_bench,
    load_bench,
    render_bench,
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


def test_payload_records_runtime_provenance():
    import numpy

    payload = _tiny_payload()
    assert payload["numpy"] == numpy.__version__
    assert payload["trace_epoch"] == TRACE_EPOCH == 2


def test_stage_split_leaves_fingerprints_unchanged():
    """``--stages`` times one extra run per cell; the timed runs and every
    fingerprint are the same as without it."""
    plain = run_bench(workloads=["gcc"], n_insts=2000, repeats=1)
    split = run_bench(workloads=["gcc"], n_insts=2000, repeats=1, stages=True)
    fp = lambda payload: [
        (r["lsu"], r["stats_fingerprint"], r["cycles"]) for r in payload["results"]
    ]
    assert fp(split) == fp(plain)
    for r in plain["results"]:
        assert "stage_seconds" not in r
    for r in split["results"]:
        seconds = r["stage_seconds"]
        assert list(seconds) == [*STAGES, "loop"]
        assert all(value >= 0 for key, value in seconds.items() if key != "loop")
        assert sum(seconds.values()) == pytest.approx(r["stages_wall_seconds"])
    assert "stage split" in render_bench(split)
    assert "stage split" not in render_bench(plain)
