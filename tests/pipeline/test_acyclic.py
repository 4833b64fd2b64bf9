"""A simulated cell holds no reference cycle: refcounting frees it.

Every machine the fuzzer, the fig5-7 sweeps, NLQ-SM and the spec-updates
study build is run with the cyclic collector off, then dropped; a following ``gc.collect()`` must
find nothing.  A run cut short by a raised :class:`SimulationError` must
leave nothing behind either.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.experiments.fuzz import fuzz_matrix
from repro.harness.configs import (
    fig5_configs,
    fig6_configs,
    fig7_configs,
    nlqsm_configs,
    spec_updates_configs,
)
from repro.pipeline.processor import Processor, SimulationError
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

CONFIGS = {
    f"{family.__name__}:{name}": config
    for family in (fuzz_matrix, fig5_configs, fig6_configs, fig7_configs, spec_updates_configs)
    for name, config in family().items()
}
CONFIGS.update(
    (f"nlqsm_configs:{name}", config) for name, config in nlqsm_configs(200).items()
)


@pytest.fixture(scope="module")
def trace():
    trace = generate_trace(spec_profile("gcc"), 1500)
    # Build the trace's lazy views up front: they belong to the trace,
    # not to the cell under test.
    trace.meta()
    trace.hot()
    return trace


def garbage_left(simulate) -> int:
    """Cyclic garbage left once ``simulate`` returns and its cell is dropped.

    Everything alive beforehand is frozen out of the collector's view, so
    the count -- and the time spent collecting -- covers only what
    ``simulate`` allocated, not the rest of the test session's heap.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        simulate()
        return gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()


def test_planted_cycle_is_counted(trace):
    """The check bites: a cell that keeps a reference to itself is found."""

    def simulate():
        processor = Processor(CONFIGS["fig5_configs:NLQ"], trace, warmup=300)
        processor.run()
        processor.inflight_by_seq[-1] = processor

    assert garbage_left(simulate) > 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_run_is_refcount_freed(trace, name):
    def simulate():
        processor = Processor(CONFIGS[name], trace, warmup=300)
        stats = processor.run()
        assert stats.committed == len(trace) - 300
        # The warm-up swap handed the measured stats to the LSU too.
        assert processor.lsu.stats is processor.stats

    assert garbage_left(simulate) == 0


def test_failed_run_is_refcount_freed(trace):
    config = dataclasses.replace(fig5_configs()["NLQ"], watchdog_cycles=1)

    def simulate():
        with pytest.raises(SimulationError):
            Processor(config, trace).run()

    assert garbage_left(simulate) == 0
