#!/usr/bin/env python
"""Experiment API walkthrough: declarative specs, backends, cached results.

Builds a small Figure-5-style sweep, runs it three ways -- serially,
on local worker processes, and against a warm on-disk cache --
and shows that all three produce identical statistics.
"""

import tempfile
import time

from repro.experiments import (
    BatchRunner,
    ResultStore,
    SerialBackend,
    matrix_spec,
    run_experiment,
)
from repro.harness.configs import fig5_configs


def main() -> None:
    # Every Figure 5 machine crossed with two SPEC workloads.  Workloads
    # may also be profiles, phased workloads or fixed traces
    # (WorkloadSpec.from_trace); None means the whole SPEC2000int suite.
    spec = matrix_spec("fig5-demo", fig5_configs(), ["gcc", "vortex"], n_insts=10_000)
    print(f"spec: {len(spec.cells())} cells, fingerprint {spec.fingerprint()[:12]}...")

    started = time.perf_counter()
    serial = run_experiment(spec, backend=SerialBackend())
    print(f"serial backend:       {time.perf_counter() - started:.1f}s")

    # The batch runner (what `svw-repro --jobs N` uses) runs the sweep on
    # the process's fleet of loopback worker agents: each workload trace
    # is generated/encoded once, shipped to an agent that asks for it,
    # and every config of that workload is drained on the agent holding it.
    started = time.perf_counter()
    batched = run_experiment(spec, backend=BatchRunner(jobs=4))
    print(f"batch runner:         {time.perf_counter() - started:.1f}s")
    assert batched.to_dict() == serial.to_dict(), "backends must agree bit-for-bit"

    with tempfile.TemporaryDirectory() as cache_dir:
        store = ResultStore(cache_dir)
        run_experiment(spec, store=store)  # cold: simulates and fills the cache
        started = time.perf_counter()
        cached = run_experiment(spec, store=store)  # warm: pure cache reads
        print(f"warm result store:    {time.perf_counter() - started:.2f}s "
              f"({store.hits} hits, {store.misses} misses)")
        assert cached.to_dict() == serial.to_dict()

    print()
    for config in spec.config_order:
        if config != spec.baseline:
            print(f"  {config:10s} speedup {serial.avg_speedup_pct(config):+6.1f}%  "
                  f"re-exec {serial.avg_reexec_rate(config):6.1%}")


if __name__ == "__main__":
    main()
