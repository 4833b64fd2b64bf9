"""Section 3.6: SSN width.

Finite SSNs wrap; the paper's policy drains the pipeline and flash-clears
the SSBF (and IT) at each wrap.  With 16-bit SSNs (a drain every 64K
stores) the cost is ~0.2% versus infinite SSNs; very narrow SSNs drain
often enough to hurt.
"""

from repro.experiments.run import run_experiment
from repro.harness.figures import ssn_width_spec
from repro.harness.report import render_figure

from benchmarks.conftest import BENCH_INSTS


def _run():
    return run_experiment(
        ssn_width_spec(["bzip2", "twolf"], BENCH_INSTS, widths=(8, 10, 16))
    )


def test_ssn_width(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_figure(result, metric="speedup"))

    # The baseline of this sweep is the infinite-SSN configuration, so
    # "speedups" are the (negative) cost of finite widths.
    cost_16 = result.avg_speedup_pct("16-bit")
    cost_8 = result.avg_speedup_pct("8-bit")
    assert cost_16 > -2.0, f"16-bit SSNs should cost well under 2% ({cost_16:+.2f}%)"
    assert cost_8 <= cost_16 + 0.5, "narrower SSNs cannot be cheaper (drain rate)"
    # Drain accounting is visible in the stats.
    for bench in result.benchmarks:
        assert result.stats[bench]["8-bit"].ssn_drains >= 1
