"""Core-simulator throughput benchmark (``svw-repro bench``).

Measures **committed instructions per second** of :class:`~repro.pipeline.
processor.Processor` -- the quantity every figure sweep is bottlenecked on
-- for one representative machine configuration per LSU kind, across the
default figure workloads.  Results are written to ``BENCH_core.json`` so
the performance trajectory of the simulation core is tracked from PR to
PR.  To compare two checkouts, run ``benchmarks/ab_cells.py`` on one
host: it times each cell of both sides interleaved and checks their
fingerprints.

Methodology:

- traces are generated (and their :class:`~repro.isa.inst.TraceMeta`
  built) outside the timed region -- the benchmark measures simulation,
  not workload generation;
- each (LSU kind, workload) cell is the **best of** ``repeats`` runs of
  ``Processor(config, trace).run()``, which is the standard way to strip
  scheduler noise from a throughput measurement;
- every cell also records the :meth:`~repro.pipeline.stats.SimStats.
  fingerprint` of its run, so a perf comparison between two commits can
  simultaneously prove the runs were bit-identical;
- ``stages=True`` (``svw-repro bench --stages``) adds one more run per
  cell, after the timed repeats, on :class:`StageTimedProcessor`: the
  cell's ``stage_seconds`` split ``Processor.run`` into its five stages
  plus the loop remainder, and ``stages_wall_seconds`` is that run's
  total, to read beside the uninstrumented best (the difference is the
  wrappers' cost).  The timed repeats never run the wrappers.

``BENCH_core.json`` is a timing snapshot: its per-cell fingerprints are
provenance, not a gate.  The same cells are pinned, with every other
golden fingerprint, in the golden table of :mod:`repro.harness.goldens`.

``model_epoch`` and ``trace_epoch`` name the code epochs of
:mod:`repro.fingerprint` the snapshot simulated under.  After a change
to the timing model (bump ``MODEL_EPOCH``) or to a trace generator (bump
``TRACE_EPOCH``), run ``svw-repro goldens``, review the table diff, and
regenerate the snapshot with ``svw-repro bench``: fingerprints of two
snapshots from different epochs are expected to differ.

``BENCH_core.json`` schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "created_unix": <float, seconds since epoch>,
      "python": "3.11.7", "platform": "Linux-...",
      "numpy": "2.4.6", "model_epoch": 1, "trace_epoch": 2,
      "n_insts": 30000, "repeats": 3,
      "workloads": ["bzip2", ...],
      "results": [
        {"lsu": "nlq", "config": "+SVW+UPD", "workload": "gcc",
         "committed": 30000, "cycles": 46652, "wall_seconds": 0.25,
         "insts_per_sec": 120000.0, "stats_fingerprint": "...",
         "stage_seconds": {"complete": ..., ..., "loop": ...},  # --stages
         "stages_wall_seconds": 0.3},                          # --stages
        ...
      ],
      "aggregate": {"nlq": {"committed": ..., "wall_seconds": ...,
                            "insts_per_sec": ...}, ...,
                    "all": {...}}
    }
"""

from __future__ import annotations

import platform
import time
from typing import Callable

import numpy

from repro.fingerprint import MODEL_EPOCH, TRACE_EPOCH
from repro.harness.configs import fig5_configs, fig6_configs
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

BENCH_SCHEMA_VERSION = 1

#: The stages of ``Processor.run`` that ``--stages`` times, in loop order.
STAGES = ("complete", "commit", "rex", "issue", "dispatch")

#: Default instruction budget per cell (the figure sweeps' default).
BENCH_INSTS = 30_000

#: Representative slice of the default figure workloads: one streaming
#: (bzip2), one forwarding-heavy/high-IPC (vortex), one ambiguous-store
#: heavy (twolf), one branchy low-IPC (gcc), one miss-dominated (mcf).
BENCH_WORKLOADS = ["bzip2", "vortex", "twolf", "gcc", "mcf"]

#: ``--quick`` slice for CI smoke runs.
QUICK_WORKLOADS = ["gcc", "vortex"]
QUICK_INSTS = 8_000


def bench_configs() -> dict[str, tuple[str, MachineConfig]]:
    """One representative configuration per LSU kind.

    Returns ``{lsu_kind: (figure_label, config)}`` -- the conventional
    baseline from Figure 5, NLQ with the full SVW filter (Figure 5's
    ``+SVW+UPD``), and SSQ with the full SVW filter (Figure 6's
    ``+SVW+UPD``), i.e. the cells the paper's headline results live on.
    """
    return {
        "conventional": ("fig5/baseline", fig5_configs()["baseline"]),
        "nlq": ("fig5/+SVW+UPD", fig5_configs()["+SVW+UPD"]),
        "ssq": ("fig6/+SVW+UPD", fig6_configs()["+SVW+UPD"]),
    }


def _timed_stage(stage: str):
    method = getattr(Processor, f"_do_{stage}")

    def timed(self, *args):
        started = time.perf_counter()
        result = method(self, *args)
        self.stage_seconds[stage] += time.perf_counter() - started
        return result

    return timed


class StageTimedProcessor(Processor):
    """A :class:`Processor` that accumulates wall seconds per stage method.

    The stage loop looks its stage methods up once per run, so overriding
    them here times every call without touching the plain processor.
    """

    __slots__ = ("stage_seconds",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stage_seconds = dict.fromkeys(STAGES, 0.0)

    _do_complete = _timed_stage("complete")
    _do_commit = _timed_stage("commit")
    _do_rex = _timed_stage("rex")
    _do_issue = _timed_stage("issue")
    _do_dispatch = _timed_stage("dispatch")


def stage_split(config: MachineConfig, trace) -> tuple[dict[str, float], float, str]:
    """One instrumented run: ``(stage_seconds, wall_seconds, fingerprint)``.

    ``stage_seconds`` has one key per :data:`STAGES` entry plus ``loop``,
    the part of the wall time spent outside every stage method.
    """
    processor = StageTimedProcessor(config, trace)
    started = time.perf_counter()
    stats = processor.run()
    wall = time.perf_counter() - started
    split = dict(processor.stage_seconds)
    split["loop"] = wall - sum(split.values())
    return split, wall, stats.fingerprint()


def run_bench(
    workloads: list[str] | None = None,
    n_insts: int = BENCH_INSTS,
    repeats: int = 3,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    lsus: list[str] | None = None,
    stages: bool = False,
) -> dict:
    """Run the core benchmark; returns the ``BENCH_core.json`` payload.

    ``workloads`` and ``lsus`` narrow the matrix (``svw-repro bench
    --workloads gcc --lsus nlq``), which is how the perf-regression
    harness targets a single cell during development.  ``stages`` adds
    each cell's per-stage split (see :func:`stage_split`).
    """
    if quick:
        workloads = workloads or QUICK_WORKLOADS
        n_insts = min(n_insts, QUICK_INSTS)
        repeats = min(repeats, 2)
    elif workloads is None:
        workloads = BENCH_WORKLOADS
    configs = bench_configs()
    if lsus is not None:
        unknown = sorted(set(lsus) - set(configs))
        if unknown:
            raise ValueError(f"unknown LSU kinds {unknown}; choose from {sorted(configs)}")
        configs = {kind: configs[kind] for kind in configs if kind in lsus}
    results: list[dict] = []
    traces = {}
    for name in workloads:
        trace = generate_trace(spec_profile(name), n_insts)
        trace.meta()  # build per-instruction metadata outside the timer
        traces[name] = trace
    for kind, (label, config) in configs.items():
        for name in workloads:
            trace = traces[name]
            if progress is not None:
                progress(f"bench: {kind} / {name}")
            best = float("inf")
            stats = None
            for _ in range(max(1, repeats)):
                processor = Processor(config, trace)
                started = time.perf_counter()
                stats = processor.run()
                best = min(best, time.perf_counter() - started)
            assert stats is not None
            row = {
                "lsu": kind,
                "config": label,
                "workload": name,
                "committed": stats.committed,
                "cycles": stats.cycles,
                "wall_seconds": best,
                "insts_per_sec": stats.committed / best if best else 0.0,
                "stats_fingerprint": stats.fingerprint(),
                # Scheduler observability (excluded from the fingerprint):
                # how much of the run the skip-ahead scheduler covered,
                # and what woke it.  A bench regression with a collapsed
                # skip share points at the scheduler, not the core.
                "skip_jumps": stats.skip_jumps,
                "skipped_cycles": stats.skipped_cycles,
                "wakeup_causes": dict(stats.wakeup_causes),
            }
            if stages:
                split, wall, fingerprint = stage_split(config, trace)
                if fingerprint != row["stats_fingerprint"]:
                    raise RuntimeError(
                        f"bench: stage-timed run of {kind} / {name} diverged"
                    )
                row["stage_seconds"] = split
                row["stages_wall_seconds"] = wall
            results.append(row)
    aggregate: dict[str, dict] = {}
    for kind in list(configs) + ["all"]:
        cells = [r for r in results if kind == "all" or r["lsu"] == kind]
        committed = sum(r["committed"] for r in cells)
        wall = sum(r["wall_seconds"] for r in cells)
        aggregate[kind] = {
            "committed": committed,
            "wall_seconds": wall,
            "insts_per_sec": committed / wall if wall else 0.0,
        }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Additive to schema 1: the numpy version explains a throughput
        # delta between two snapshots, and the two epochs name the code
        # the run simulated under (fingerprints from different epochs
        # are expected to differ).
        "numpy": numpy.__version__,
        "model_epoch": MODEL_EPOCH,
        "trace_epoch": TRACE_EPOCH,
        "n_insts": n_insts,
        "repeats": repeats,
        "workloads": list(workloads),
        "results": results,
        "aggregate": aggregate,
    }


def render_bench(payload: dict) -> str:
    """Human-readable table for a benchmark payload."""
    lines = [
        f"core benchmark: {payload['n_insts']} insts/cell, "
        f"best of {payload['repeats']}, python {payload['python']}",
        f"{'lsu':14s} {'workload':12s} {'kinsts/s':>9s} {'cycles':>8s} {'skip%':>6s}",
    ]
    has_skip = False
    for r in payload["results"]:
        # Pre-skip-counter snapshots lack the observability keys; render
        # their rows with a blank share instead of refusing the payload.
        skipped = r.get("skipped_cycles")
        if skipped is None:
            share = "     -"
        else:
            has_skip = True
            share = f"{skipped / r['cycles']:6.1%}" if r["cycles"] else f"{0:6.1%}"
        lines.append(
            f"{r['lsu']:14s} {r['workload']:12s} "
            f"{r['insts_per_sec'] / 1000:9.1f} {r['cycles']:8d} {share}"
        )
    split_rows = [r for r in payload["results"] if "stage_seconds" in r]
    if split_rows:
        lines.append("")
        lines.append(
            "stage split (ms; one instrumented run per cell, beside the "
            "uninstrumented best):"
        )
        keys = (*STAGES, "loop")
        lines.append(
            f"{'lsu':14s} {'workload':12s} "
            + " ".join(f"{key:>8s}" for key in keys)
            + f" {'timed':>8s} {'best':>8s}"
        )
        for r in split_rows:
            split = r["stage_seconds"]
            lines.append(
                f"{r['lsu']:14s} {r['workload']:12s} "
                + " ".join(f"{split[key] * 1e3:8.1f}" for key in keys)
                + f" {r['stages_wall_seconds'] * 1e3:8.1f}"
                + f" {r['wall_seconds'] * 1e3:8.1f}"
            )
    lines.append("")
    for kind, agg in payload["aggregate"].items():
        lines.append(f"{kind:14s} aggregate    {agg['insts_per_sec'] / 1000:9.1f}")
    if has_skip:
        causes: dict[str, int] = {}
        jumps = 0
        for r in payload["results"]:
            jumps += r.get("skip_jumps", 0)
            for cause, count in (r.get("wakeup_causes") or {}).items():
                causes[cause] = causes.get(cause, 0) + count
        breakdown = ", ".join(
            f"{cause}={count}" for cause, count in sorted(causes.items())
        )
        lines.append(
            f"skip-ahead: {jumps} jumps across all cells (wake-ups: {breakdown})"
        )
    return "\n".join(lines)
