"""Sweep-throughput benchmark (cells/sec per execution backend).

Unlike ``bench_core.py`` -- which measures one ``Processor.run`` -- this
benchmark measures whole-sweep throughput per backend (serial, batch
runner) and proves the parallel backend bit-identical to ``SerialBackend`` cell by cell.  Results are
written to ``BENCH_sweep.json`` so sweep throughput is tracked from
commit to commit.

Run it through the CLI::

    svw-repro bench-sweep --jobs 2                     # full run
    svw-repro bench-sweep --quick                      # CI smoke
    svw-repro bench-sweep --compare old.json new.json  # cells/s ratios

or as a pytest module (``pytest benchmarks/bench_sweep.py``), which runs
the quick variant and sanity-checks the emitted schema and equivalence.
"""

from repro.harness.bench_sweep import (
    BASELINE_MODE,
    MODE_ORDER,
    SWEEP_SCHEMA_VERSION,
    compare_sweep_bench,
    run_sweep_bench,
)


def test_bench_sweep_quick():
    """Quick sweep benchmark: schema, mode coverage, and equivalence."""
    payload = run_sweep_bench(quick=True, jobs=2, repeats=1)
    assert payload["schema_version"] == SWEEP_SCHEMA_VERSION
    assert set(payload["modes"]) == set(MODE_ORDER)
    assert BASELINE_MODE in payload["modes"]
    for mode, row in payload["modes"].items():
        assert row["wall_seconds"] > 0, mode
        assert row["cells_per_sec"] > 0, mode
    assert payload["n_cells"] == len(payload["cells"])
    for cell in payload["cells"]:
        assert len(cell["stats_fingerprint"]) == 64
    # Every backend must reproduce SerialBackend bit by bit.
    assert payload["equivalence"]["identical"], payload["equivalence"]["diverged"]
    # Trace generation is amortized: across all modes and repeats, each
    # workload was generated at most once.
    generations = sum(
        payload["modes"][mode]["trace_generations"] for mode in MODE_ORDER
    )
    assert generations == len(payload["workloads"])
    # A payload compared against itself reports bit-identical cells.
    report = compare_sweep_bench(payload, payload)
    assert "bit-identical" in report
    assert "WARNING" not in report

