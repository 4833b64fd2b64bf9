"""Sweep-throughput benchmark (``svw-repro bench-sweep``).

Where ``svw-repro bench`` measures the simulator core (committed
instructions per second of one ``Processor.run``), this benchmark measures
what the paper's figures are actually bottlenecked on: **cells per
second** of a whole configs x workloads sweep, per execution backend.  It
is the regression harness for the sweep-execution subsystem (trace codec,
session worker fleet, scheduler and trace wire) and, because every cell's statistics
fingerprint is recorded and cross-checked against
:class:`~repro.experiments.backends.SerialBackend`, every speedup claim in
``BENCH_sweep.json`` doubles as a bit-identical equivalence proof.

Modes (same cell set, same machine):

- ``serial``        -- ``SerialBackend``: the in-process reference that
  speedups are quoted against.
- ``batch``         -- ``BatchRunner`` (what ``--jobs N`` selects): the
  ``remote`` machinery over the session's ``min(jobs, cores)`` loopback
  worker agents.  Traces are generated/encoded at most once in the
  parent and shipped only to an agent that asks for one; each agent
  drains the cells of the trace it holds first.  The fleet outlives a
  run, so repeats after the first start on warm agents.
- ``remote``        -- ``RemoteBackend`` (only with ``remote_workers``):
  cells shipped to worker agents over the TCP trace wire format.  The
  ``remote-equivalence`` CI job runs this against two loopback agents,
  which makes the fingerprint cross-check below a wire-protocol
  equivalence gate, not just a backend one.

All modes share one on-disk
:class:`~repro.workloads.trace_cache.TraceCache` for the duration of the
benchmark, so across *all* modes and repeats each (workload, seed, budget)
trace is generated at most once -- the ``trace_generations`` numbers in
the payload are the amortization proof.

``BENCH_sweep.json`` schema (``schema_version`` 2)::

    {
      "schema_version": 2, "created_unix": ..., "python": ..., "platform": ...,
      "numpy": ..., "trace_epoch": 2,
      "jobs": 2, "n_insts": 30000, "repeats": 2,
      "workloads": [...], "configs": [...], "n_cells": 50,
      "cells": [{"workload": ..., "config": ..., "stats_fingerprint": ...}],
      "modes": {"serial": {"wall_seconds": ..., "cells_per_sec": ...,
                           "trace_generations": ...}, ...},
      "trace_generation": {"n_insts": ..., "workloads": [...],
                           "insts_per_sec": ...},
      "equivalence": {"identical": true, "diverged": []},
      "speedups": {"batch_vs_serial": ..., "remote_vs_serial": ...}
    }
"""

from __future__ import annotations

import platform
import tempfile
import time
from typing import Callable

from repro.experiments.backends import SerialBackend
from repro.experiments.pool import BatchRunner
from repro.experiments.remote import RemoteBackend
from repro.experiments.spec import ExperimentSpec, matrix_spec
from repro.harness.bench import (
    BENCH_WORKLOADS,
    DIVERGED,
    QUICK_WORKLOADS,
    runtime_provenance,
)
from repro.harness.configs import fig5_configs, fig6_configs
from repro.isa.codec import encode_trace
from repro.pipeline.config import MachineConfig
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace_cache import TraceCache

SWEEP_SCHEMA_VERSION = 2

#: Default instruction budget per cell (the figure sweeps' default).
SWEEP_INSTS = 30_000

#: Default worker count for the parallel modes.
SWEEP_JOBS = 2

QUICK_INSTS = 6_000

#: The baseline mode speedups are quoted against.
BASELINE_MODE = "serial"

MODE_ORDER = ("serial", "batch")


def sweep_configs() -> dict[str, MachineConfig]:
    """The default figure sweep's configurations.

    The union of the Figure 5 (NLQ) and Figure 6 (SSQ) families -- ten
    configurations per workload, which is the amortization profile the
    paper's evaluation actually has: many machines replaying one trace.
    """
    configs = {f"fig5/{label}": config for label, config in fig5_configs().items()}
    configs.update(
        {f"fig6/{label}": config for label, config in fig6_configs().items()}
    )
    return configs


def sweep_spec(
    workloads: list[str] | None = None,
    n_insts: int = SWEEP_INSTS,
    quick: bool = False,
) -> ExperimentSpec:
    """The benchmark's sweep: default figure configs x bench workloads."""
    if quick:
        workloads = workloads or QUICK_WORKLOADS
        n_insts = min(n_insts, QUICK_INSTS)
        configs = {f"fig5/{label}": config for label, config in fig5_configs().items()}
    else:
        workloads = workloads or BENCH_WORKLOADS
        configs = sweep_configs()
    return matrix_spec(
        "bench_sweep", configs, workloads, n_insts, baseline="fig5/baseline"
    )


def _make_backends(
    jobs: int, cache: TraceCache, remote_workers: list[str] | None = None
) -> dict[str, object]:
    backends: dict[str, object] = {
        "serial": SerialBackend(trace_cache=cache),
        "batch": BatchRunner(jobs=jobs, trace_cache=cache),
    }
    if remote_workers:
        backends["remote"] = RemoteBackend(remote_workers, trace_cache=cache)
    return backends


def measure_generation(
    workloads: list[str], n_insts: int, repeats: int = 2
) -> dict:
    """Cold-sweep trace-production throughput of the live generator.

    Times what a cold sweep pays per workload -- generate the trace and
    encode it for publication.  Best-of-``repeats`` per workload.
    """
    wall = 0.0
    for name in workloads:
        profile = spec_profile(name)
        best = float("inf")
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            encode_trace(generate_trace(profile, n_insts))
            best = min(best, time.perf_counter() - started)
        wall += best
    total = n_insts * len(workloads)
    return {
        "n_insts": n_insts,
        "workloads": list(workloads),
        "insts_per_sec": total / wall if wall else 0.0,
    }


def run_sweep_bench(
    workloads: list[str] | None = None,
    n_insts: int = SWEEP_INSTS,
    jobs: int = SWEEP_JOBS,
    repeats: int = 2,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    trace_cache_dir: str | None = None,
    remote_workers: list[str] | None = None,
) -> dict:
    """Run the sweep benchmark; returns the ``BENCH_sweep.json`` payload.

    ``remote_workers`` (``host:port`` addresses of live ``svw-repro
    worker`` agents) adds the ``remote`` mode: the same cells through
    :class:`~repro.experiments.remote.RemoteBackend`, fingerprint-checked
    against ``SerialBackend`` like every other mode.
    """
    if quick:
        repeats = min(repeats, 1)
    spec = sweep_spec(workloads, n_insts, quick=quick)
    requests = spec.cells()
    cell_ids = [(r.workload.name, r.config_label) for r in requests]
    modes = MODE_ORDER + (("remote",) if remote_workers else ())

    with tempfile.TemporaryDirectory(prefix="svw-bench-sweep-") as default_dir:
        cache = TraceCache(trace_cache_dir or default_dir)
        backends = _make_backends(jobs, cache, remote_workers)
        mode_rows: dict[str, dict] = {}
        fingerprints: dict[str, list[str]] = {}
        for mode in modes:
            backend = backends[mode]
            best = float("inf")
            generations = 0
            # A serial backend keeps one provider for its lifetime, so its
            # counter is cumulative: count each run's delta.
            provider, counted = None, 0
            stats = None
            for repeat in range(max(1, repeats)):
                if progress is not None:
                    progress(f"bench-sweep: {mode} ({len(requests)} cells, "
                             f"repeat {repeat + 1})")
                started = time.perf_counter()
                stats = backend.run(requests)
                best = min(best, time.perf_counter() - started)
                current = getattr(backend, "last_provider", None)
                if current is not None:
                    if current is not provider:
                        provider, counted = current, 0
                    generations += current.generations - counted
                    counted = current.generations
            assert stats is not None
            fingerprints[mode] = [s.fingerprint() for s in stats]
            mode_rows[mode] = {
                "wall_seconds": best,
                "cells_per_sec": len(requests) / best if best else 0.0,
                "trace_generations": generations,
            }

    if progress is not None:
        progress("bench-sweep: trace generation")
    generation = measure_generation(
        spec.benchmark_names, spec.n_insts, repeats=max(1, repeats)
    )

    reference = fingerprints[BASELINE_MODE]
    diverged = sorted(
        f"{mode}:{workload}/{config}"
        for mode, prints in fingerprints.items()
        for (workload, config), ours, theirs in zip(cell_ids, prints, reference)
        if ours != theirs
    )
    baseline_rate = mode_rows[BASELINE_MODE]["cells_per_sec"]
    speedups = {
        f"{mode}_vs_{BASELINE_MODE}": (
            row["cells_per_sec"] / baseline_rate if baseline_rate else 0.0
        )
        for mode, row in mode_rows.items()
        if mode != BASELINE_MODE
    }
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **runtime_provenance(),
        "jobs": jobs,
        "n_insts": spec.n_insts,
        "repeats": max(1, repeats),
        "workloads": spec.benchmark_names,
        # Additive provenance: the registry-taxonomy class per workload
        # (same key as BENCH_core; readers tolerate absence).
        "workload_taxonomy": {w.name: w.taxonomy for w in spec.workloads},
        "configs": spec.config_order,
        "n_cells": len(requests),
        "remote_workers": list(remote_workers) if remote_workers else [],
        "cells": [
            {"workload": workload, "config": config, "stats_fingerprint": print_}
            for (workload, config), print_ in zip(cell_ids, reference)
        ],
        "modes": mode_rows,
        "trace_generation": generation,
        "equivalence": {"identical": not diverged, "diverged": diverged},
        "speedups": speedups,
    }


def render_sweep_bench(payload: dict) -> str:
    """Human-readable table for a sweep-benchmark payload."""
    lines = [
        f"sweep benchmark: {payload['n_cells']} cells "
        f"({len(payload['workloads'])} workloads x {len(payload['configs'])} configs, "
        f"{payload['n_insts']} insts/cell), jobs={payload['jobs']}, "
        f"best of {payload['repeats']}, python {payload['python']}",
        f"{'mode':14s} {'wall s':>8s} {'cells/s':>9s} {'trace gens':>11s} {'vs serial':>10s}",
    ]
    baseline = payload["modes"][BASELINE_MODE]["cells_per_sec"]
    extra_modes = [mode for mode in payload["modes"] if mode not in MODE_ORDER]
    for mode in list(MODE_ORDER) + sorted(extra_modes):
        row = payload["modes"].get(mode)
        if row is None:
            continue
        ratio = row["cells_per_sec"] / baseline if baseline else float("nan")
        lines.append(
            f"{mode:14s} {row['wall_seconds']:8.2f} {row['cells_per_sec']:9.2f} "
            f"{row['trace_generations']:11d} {ratio:9.2f}x"
        )
    generation = payload.get("trace_generation")
    if generation:
        lines.append(
            f"trace generation: {generation['insts_per_sec'] / 1000:.0f}k insts/s"
        )
    equivalence = payload["equivalence"]
    if equivalence["identical"]:
        lines.append("results bit-identical to SerialBackend across all modes")
    else:
        lines.append(f"WARNING: diverged cells: {equivalence['diverged']}")
    return "\n".join(lines)


def compare_sweep_bench(old: dict, new: dict) -> str:
    """Cells/sec ratios between two ``BENCH_sweep.json`` payloads."""
    lines = [f"{'mode':14s} {'old c/s':>9s} {'new c/s':>9s} {'speedup':>8s}"]
    for mode, new_row in new["modes"].items():
        old_row = old["modes"].get(mode)
        if old_row is None:
            continue
        ratio = (
            new_row["cells_per_sec"] / old_row["cells_per_sec"]
            if old_row["cells_per_sec"]
            else float("nan")
        )
        lines.append(
            f"{mode:14s} {old_row['cells_per_sec']:9.2f} "
            f"{new_row['cells_per_sec']:9.2f} {ratio:7.2f}x"
        )
    old_fp = {
        (c["workload"], c["config"]): c["stats_fingerprint"] for c in old["cells"]
    }
    diverged = sorted(
        f"{c['workload']}/{c['config']}"
        for c in new["cells"]
        if old_fp.get((c["workload"], c["config"]), c["stats_fingerprint"])
        != c["stats_fingerprint"]
    )
    if diverged:
        lines.append(f"{DIVERGED} for {diverged}")
    else:
        lines.append("results bit-identical across comparable cells")
    return "\n".join(lines)
