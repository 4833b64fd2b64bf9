"""Core-simulator throughput benchmark (committed-instructions/sec).

Unlike its ``bench_fig*`` siblings -- which regenerate the paper's figures
-- this benchmark measures the *simulator itself*: committed instructions
per second of ``Processor.run`` for one representative configuration per
LSU kind across the default figure workloads, written to
``BENCH_core.json`` so performance is tracked from commit to commit.

Run it through the CLI::

    svw-repro bench           # full run
    svw-repro bench --quick   # CI smoke

or as a pytest module (``pytest benchmarks/bench_core.py``), which runs
the quick variant and sanity-checks the emitted schema.
"""

from repro.harness.bench import BENCH_SCHEMA_VERSION, bench_configs, run_bench


def test_bench_core_quick(tmp_path):
    """Quick benchmark run: schema and coverage."""
    payload = run_bench(quick=True, repeats=1)
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    kinds = {r["lsu"] for r in payload["results"]}
    assert kinds == set(bench_configs())
    for r in payload["results"]:
        assert r["committed"] > 0
        assert r["wall_seconds"] > 0
        assert r["insts_per_sec"] > 0
        assert len(r["stats_fingerprint"]) == 64
    assert payload["aggregate"]["all"]["insts_per_sec"] > 0

