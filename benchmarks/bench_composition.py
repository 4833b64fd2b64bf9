"""Section 3.5: composing multiple load optimizations.

SSQ (which marks every load) and RLE run together on the 8-wide machine;
per-load SVW definitions compose with MIN.  The assertion is soundness plus
the expected direction: the composed machine without SVW drowns in
re-executions; with SVW it recovers.
"""

from repro.experiments.run import run_experiment
from repro.harness.figures import composition_spec
from repro.harness.report import render_figure

from benchmarks.conftest import BENCH_INSTS


def _run():
    return run_experiment(composition_spec(["bzip2", "gcc"], BENCH_INSTS))


def test_composition(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_figure(result))

    combined_rate = result.avg_reexec_rate("combined")
    svw_rate = result.avg_reexec_rate("+SVW")
    assert combined_rate == 1.0, "SSQ marks every load in the composition"
    assert svw_rate < 0.5, "composed SVW (MIN rule) still filters"
    assert result.avg_speedup_pct("+SVW") >= result.avg_speedup_pct("combined") - 1.0
    # RLE is active inside the composition.
    for bench in result.benchmarks:
        stats = result.stats[bench]["+SVW"]
        assert stats.eliminated_reuse + stats.eliminated_bypass > 0
