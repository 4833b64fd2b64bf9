"""NLQ-SM (section 3.2): inter-thread ordering via banked SSBF (extension).

The paper describes -- but does not evaluate ("our simulation
infrastructure does not execute shared-memory programs") -- the NLQ-SM
mechanism: coherence invalidations act as asynchronous stores, writing
``SSN_RENAME + 1`` into every bank of a line's SSBF entry; in-flight loads
to that line then fail the filter test and re-execute.

We exercise the mechanism with a synthetic invalidation stream (see
:func:`repro.harness.configs.nlqsm_configs`): silent invalidations measure
filtering cost without perturbing single-thread functional correctness.
"""

from repro.experiments.run import run_experiment
from repro.experiments.spec import matrix_spec
from repro.harness.configs import nlqsm_configs

from benchmarks.conftest import BENCH_INSTS


def _run():
    spec = matrix_spec("nlqsm", nlqsm_configs(400), ["gcc"], BENCH_INSTS)
    result = run_experiment(spec)
    return result.stats["gcc"]["baseline"], result.stats["gcc"]["invalidations"]


def test_nlqsm(benchmark):
    quiet, noisy = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(f"no invalidations:   rex rate {quiet.reexec_rate:.2%}")
    print(f"with invalidations: rex rate {noisy.reexec_rate:.2%}")

    # Invalidations mark in-flight loads; SVW filters the unaffected ones,
    # so the re-execution rate rises but stays far below marking rate.
    assert noisy.reexec_rate >= quiet.reexec_rate
    assert noisy.marked_loads > quiet.marked_loads
    assert noisy.reexec_rate < noisy.marked_rate
