"""Qualitative paper-claim checks at test scale.

These run the real figure drivers on reduced samples and assert the
*directional* claims that define the paper; the benchmarks regenerate the
full rows.
"""

import pytest

from repro.experiments import WorkloadSpec, matrix_spec, run_experiment
from repro.harness.configs import fig5_configs
from repro.harness.figures import figure5, figure6, figure7

INSTS = 8_000
#: Figure 7 asserts a *performance ordering* (+SVW vs RLE), not just
#: re-execution rates; under the epoch-v2 workloads that delta is within
#: run-to-run noise at 8k instructions and only resolves with a larger
#: sample.
FIG7_INSTS = 16_000


@pytest.fixture(scope="module")
def fig5():
    return figure5(benchmarks=["twolf", "vortex"], n_insts=INSTS)


@pytest.fixture(scope="module")
def fig6():
    return figure6(benchmarks=["twolf", "vortex"], n_insts=INSTS)


@pytest.fixture(scope="module")
def fig7():
    return figure7(benchmarks=["crafty", "vortex"], n_insts=FIG7_INSTS)


class TestFigure5Claims:
    def test_nlq_has_natural_filter(self, fig5):
        rate = fig5.avg_reexec_rate("NLQ")
        assert 0.005 < rate < 0.6

    def test_svw_reduces_reexecutions_strongly(self, fig5):
        nlq = fig5.avg_reexec_rate("NLQ")
        svw = fig5.avg_reexec_rate("+SVW+UPD")
        assert svw < nlq * 0.5  # paper: 92% reduction

    def test_upd_not_worse_than_noupd(self, fig5):
        assert fig5.avg_reexec_rate("+SVW+UPD") <= fig5.avg_reexec_rate("+SVW-UPD") + 0.01

    def test_perfect_rexecutes_same_loads(self, fig5):
        assert fig5.avg_reexec_rate("+PERFECT") == pytest.approx(
            fig5.avg_reexec_rate("NLQ"), abs=0.05
        )


class TestFigure6Claims:
    def test_ssq_reexecutes_everything(self, fig6):
        assert fig6.avg_reexec_rate("SSQ") == 1.0

    def test_svw_enables_ssq(self, fig6):
        """SVW is an enabler: it must remove the bulk of the re-executions
        and recover performance toward the perfect-re-execution bound."""
        assert fig6.avg_reexec_rate("+SVW+UPD") < 0.4
        ssq = fig6.avg_speedup_pct("SSQ")
        svw = fig6.avg_speedup_pct("+SVW+UPD")
        perfect = fig6.avg_speedup_pct("+PERFECT")
        assert svw >= ssq - 1.0
        assert abs(perfect - svw) < 10.0


class TestFigure7Claims:
    def test_elimination_band(self, fig7):
        rate = fig7.avg_reexec_rate("RLE")
        assert 0.10 < rate < 0.55  # paper: 28% average, 42% max

    def test_svw_reduction(self, fig7):
        assert fig7.avg_reexec_rate("+SVW") < fig7.avg_reexec_rate("RLE") * 0.6

    def test_squ_reduces_further(self, fig7):
        assert fig7.avg_reexec_rate("+SVW-SQU") < fig7.avg_reexec_rate("+SVW")

    def test_svw_improves_on_unfiltered(self, fig7):
        assert fig7.avg_speedup_pct("+SVW") > fig7.avg_speedup_pct("RLE")


class TestRunnerMechanics:
    def test_kernel_injection(self):
        from repro.workloads.kernels import kernel_trace

        trace = kernel_trace("spill_fill", n_frames=60)
        result = run_experiment(
            matrix_spec(
                "kernels",
                fig5_configs(),
                benchmarks=[WorkloadSpec.from_trace("spill_fill", trace)],
                warmup=0,
            )
        )
        assert "spill_fill" in result.stats
        assert result.stats["spill_fill"]["NLQ"].committed == len(trace)

    def test_short_names_resolve(self):
        result = run_experiment(
            matrix_spec(
                "short", {"baseline": fig5_configs()["baseline"]},
                benchmarks=["perl.d"], n_insts=1500, warmup=0,
            )
        )
        assert result.benchmarks == ["perl.diffmail"]
