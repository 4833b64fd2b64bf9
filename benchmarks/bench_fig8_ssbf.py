"""Figure 8: SSBF organization sensitivity (on SSQ, the heaviest rex user).

Six organizations: 128/512/2048-entry simple tables, the dual "Bloom"
arrangement, 4-byte granularity, and an infinite alias-free reference.
The paper's finding: because per-load vulnerability windows are short
(5-15 stores), SSBF aliasing is a priori rare, so organization barely
matters -- 0.3% average re-execution-rate difference between the default
512-entry table and an infinite one.
"""

from repro.experiments.run import run_experiment
from repro.harness.figures import FIG8_BENCHMARKS, figure8_spec
from repro.harness.report import render_figure

from benchmarks.conftest import BENCH_INSTS


def _run():
    return run_experiment(figure8_spec(FIG8_BENCHMARKS[:3], BENCH_INSTS))


def test_figure8(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_figure(result, metric="reexec"))

    rate_128 = result.avg_reexec_rate("128")
    rate_512 = result.avg_reexec_rate("512")
    rate_inf = result.avg_reexec_rate("Infinite")
    rate_dual = result.avg_reexec_rate("Bloom")

    # Bigger/better filters can only reduce the (aliasing) re-executions.
    assert rate_inf <= rate_512 + 1e-9
    assert rate_512 <= rate_128 + 1e-9
    assert rate_dual <= rate_512 + 1e-9
    # And the paper's headline: the default 512-entry table is already
    # close to alias-free.
    assert rate_512 - rate_inf < 0.05, (
        f"512-entry SSBF should be near-ideal (512={rate_512:.2%}, inf={rate_inf:.2%})"
    )
