"""Section 6 (future work): SVW as a *replacement* for re-execution.

"In this setup, we forgo re-execution completely and simply use hits in
the SSBF to trigger pipeline flushes and train the appropriate
predictors."  The trade: no re-execution traffic at all, but every filter
false positive is now a full flush.
"""

from repro.experiments.run import run_experiment
from repro.harness.figures import svw_replacement_spec
from repro.harness.report import render_figure

from benchmarks.conftest import BENCH_INSTS


def _run():
    return run_experiment(svw_replacement_spec(["bzip2", "gcc"], BENCH_INSTS))


def test_svw_replacement(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_figure(result))

    for bench in result.benchmarks:
        rex_stats = result.stats[bench]["NLQ+SVW"]
        only_stats = result.stats[bench]["NLQ+SVW-only"]
        # Replacement mode never touches the D$ for verification...
        assert only_stats.reexecuted_loads == 0
        # ...it flushes on positive tests instead.
        assert only_stats.svw_only_flushes >= rex_stats.rex_failures
    # It should remain a functional machine in the same performance class.
    assert result.avg_speedup_pct("NLQ+SVW-only") > result.avg_speedup_pct("NLQ+SVW") - 10.0
