"""Unified experiment API: declarative specs, pluggable backends, cached results.

Quickstart::

    from repro.experiments import (
        BatchRunner, ResultStore, matrix_spec, run_experiment,
    )
    from repro.harness.configs import fig5_configs

    # None instead of the list = the full SPEC2000int suite.
    spec = matrix_spec("fig5", fig5_configs(), ["gcc", "vortex"], 30_000)
    result = run_experiment(
        spec,
        backend=BatchRunner(jobs=8),             # or SerialBackend()
        store=ResultStore("~/.cache/svw-repro"),  # reruns become cache reads
    )
    print(result.avg_speedup_pct("+SVW+UPD"))

The pieces:

- :class:`ExperimentSpec` -- a hashable, declarative description of a
  sweep (configs x workloads x budget), built by :func:`matrix_spec`.
- :class:`SerialBackend` / :class:`BatchRunner` -- interchangeable
  executors producing bit-identical statistics for the same spec.  The
  batch runner (what ``make_backend`` picks for ``jobs > 1``) is a
  :class:`RemoteBackend` over the process's session fleet of loopback
  worker agents (:mod:`~repro.experiments.pool`), started by the first
  parallel sweep and reused by every later one.
- :class:`RemoteBackend` / :class:`WorkerAgent` -- the same sweep fanned
  out to other hosts over the trace wire format (codec bytes + config
  ``to_dict`` JSON, nothing pickled), with host-level trace caching,
  zlib-compressed trace frames,
  cost-weighted longest-job-first dispatch over the agents (each
  first draining the cells of the trace it holds), and re-dispatch on
  worker loss.  Start an agent with
  ``svw-repro worker``.
- :class:`~repro.experiments.scheduler.Scheduler` -- the one
  transport-free cell scheduler under the batch runner, the remote
  backend and the campaign daemon, ordering cells by the learned
  :class:`CostModel`.
- :class:`CampaignDaemon` / :class:`CampaignClient` /
  :class:`CampaignBackend` -- sweeps as a service: a long-lived daemon
  (``svw-repro campaignd``) takes concurrent submissions from many
  clients, schedules their union across registered workers (a worker
  that stops heartbeating is deregistered and its cells re-queued),
  dedups overlapping cells by content address, and
  journals campaigns so client reconnects and daemon restarts resume
  without recomputing finished cells.
- :class:`FaultPlan` -- deterministic fault injection for the remote and
  campaign tiers (``--fault-plan`` on workers and the daemon): a seeded,
  bounded schedule of drops, crashes, delays and corrupted/truncated
  trace frames, used by the chaos-equivalence harness to prove results
  stay bit-identical under failure.
- :class:`TraceProvider` -- per-sweep trace materialization: generation
  runs at most once per (workload, seed, budget), optionally backed by an
  on-disk :class:`~repro.workloads.trace_cache.TraceCache`.
- :class:`ResultStore` -- a content-addressed JSON cache; each cell is
  keyed by a stable fingerprint of (machine config, workload, budget).
  A sweep has one: the client's ``--cache-dir`` or the campaign daemon's
  central store.
- :func:`run_experiment` -- spec + backend + store -> :class:`FigureResult`;
  ``run_experiment(matrix_spec(...))`` is the one-call serial form.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.backends import (
        CellExecutionError,
        ExecutionBackend,
        SerialBackend,
        execute_request,
        make_backend,
    )
    from repro.experiments.campaign import (
        CampaignBackend,
        CampaignClient,
        CampaignDaemon,
        CampaignError,
        CampaignUnreachableError,
        scrub_journals,
    )
    from repro.experiments.faults import FaultEvent, FaultPlan
    from repro.experiments.pool import BatchRunner, shutdown_session_pools
    from repro.experiments.remote import (
        CorruptTraceError,
        RemoteBackend,
        WorkerAgent,
        local_worker_fleet,
    )
    from repro.experiments.results import FigureResult
    from repro.experiments.scheduler import CostModel, session_cost_model
    from repro.experiments.traces import TraceProvider, workload_key
    from repro.experiments.run import run_experiment
    from repro.experiments.spec import (
        DEFAULT_INSTS,
        ExperimentSpec,
        RunRequest,
        WorkloadSpec,
        matrix_spec,
    )
    from repro.experiments.store import ResultStore
    from repro.ioutil import ScrubReport

# Each name is imported from its module on first use: a worker agent
# that imports ``repro.experiments.remote`` loads neither the campaign
# tier nor the fuzzer.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.backends": (
            "CellExecutionError",
            "ExecutionBackend",
            "SerialBackend",
            "execute_request",
            "make_backend",
        ),
        "repro.experiments.campaign": (
            "CampaignBackend",
            "CampaignClient",
            "CampaignDaemon",
            "CampaignError",
            "CampaignUnreachableError",
            "scrub_journals",
        ),
        "repro.experiments.faults": ("FaultEvent", "FaultPlan"),
        "repro.experiments.pool": ("BatchRunner", "shutdown_session_pools"),
        "repro.experiments.remote": (
            "CorruptTraceError",
            "RemoteBackend",
            "WorkerAgent",
            "local_worker_fleet",
        ),
        "repro.experiments.results": ("FigureResult",),
        "repro.experiments.scheduler": ("CostModel", "session_cost_model"),
        "repro.experiments.traces": ("TraceProvider", "workload_key"),
        "repro.experiments.run": ("run_experiment",),
        "repro.experiments.spec": (
            "DEFAULT_INSTS",
            "ExperimentSpec",
            "RunRequest",
            "WorkloadSpec",
            "matrix_spec",
        ),
        "repro.experiments.store": ("ResultStore",),
        "repro.ioutil": ("ScrubReport",),
    },
)

__all__ = [
    "DEFAULT_INSTS",
    "BatchRunner",
    "CampaignBackend",
    "CampaignClient",
    "CampaignDaemon",
    "CampaignError",
    "CampaignUnreachableError",
    "CellExecutionError",
    "CorruptTraceError",
    "CostModel",
    "ExecutionBackend",
    "ExperimentSpec",
    "FaultEvent",
    "FaultPlan",
    "FigureResult",
    "RemoteBackend",
    "ResultStore",
    "RunRequest",
    "ScrubReport",
    "SerialBackend",
    "TraceProvider",
    "WorkerAgent",
    "WorkloadSpec",
    "execute_request",
    "local_worker_fleet",
    "make_backend",
    "matrix_spec",
    "run_experiment",
    "scrub_journals",
    "session_cost_model",
    "shutdown_session_pools",
    "workload_key",
]
