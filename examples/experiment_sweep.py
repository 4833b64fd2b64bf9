#!/usr/bin/env python
"""Experiment API walkthrough: declarative specs, backends, cached results.

Builds a small Figure-5-style sweep, runs it three ways -- serially,
through the workload-batched runner, and against a warm on-disk cache --
and shows that all three produce identical statistics.
"""

import tempfile
import time

from repro.experiments import (
    BatchRunner,
    ExperimentBuilder,
    ResultStore,
    SerialBackend,
    run_experiment,
)
from repro.harness.configs import fig5_configs


def main() -> None:
    spec = (
        ExperimentBuilder("fig5-demo")
        .configs(fig5_configs())
        .workloads(["gcc", "vortex"])
        .insts(10_000)
        .build()
    )
    print(f"spec: {len(spec.cells())} cells, fingerprint {spec.fingerprint()[:12]}...")

    started = time.perf_counter()
    serial = run_experiment(spec, backend=SerialBackend())
    print(f"serial backend:       {time.perf_counter() - started:.1f}s")

    # The batch runner (what `svw-repro --jobs N` uses) generates/encodes
    # each workload trace once, ships its encoded bytes to the session
    # worker pool inside each chunk task, and runs all of a workload's
    # configs in a single pass over one decoded trace.
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
