"""Unified experiment API: declarative specs, pluggable backends, cached results.

Quickstart::

    from repro.experiments import (
        BatchRunner, ExperimentBuilder, ResultStore, run_experiment,
    )
    from repro.harness.configs import fig5_configs

    spec = (
        ExperimentBuilder("fig5")
        .configs(fig5_configs())
        .workloads(["gcc", "vortex"])   # None = full SPEC2000int suite
        .insts(30_000)
        .build()
    )
    result = run_experiment(
        spec,
        backend=BatchRunner(jobs=8),             # or SerialBackend()
        store=ResultStore("~/.cache/svw-repro"),  # reruns become cache reads
    )
    print(result.avg_speedup_pct("+SVW+UPD"))

The pieces:

- :class:`ExperimentSpec` / :class:`ExperimentBuilder` -- a hashable,
  declarative description of a sweep (configs x workloads x budget).
- :class:`SerialBackend` / :class:`BatchRunner` -- interchangeable
  executors producing bit-identical statistics for the same spec.  The
  batch runner (what ``make_backend`` picks for ``jobs > 1``) groups
  cells by workload, encodes each trace once per sweep, ships the bytes
  inside its chunk tasks on one session worker pool, and runs all configs
  of a workload in a single pass over one decoded trace.
- :class:`RemoteBackend` / :class:`WorkerAgent` -- the same sweep fanned
  out to other hosts over the trace wire format (codec bytes + config
  ``to_dict`` JSON, nothing pickled), with host-level trace caching,
  negotiated zlib compression, worker-side result memoization,
  cost-weighted longest-job-first dispatch over every slot an agent
  advertises, and re-dispatch on worker loss.  Start an agent with
  ``svw-repro worker``.
- :class:`~repro.experiments.scheduler.Scheduler` -- the one
  transport-free cell scheduler under both the remote backend and the
  campaign daemon.
- :class:`CampaignDaemon` / :class:`CampaignClient` /
  :class:`CampaignBackend` -- sweeps as a service: a long-lived daemon
  (``svw-repro campaignd``) takes concurrent submissions from many
  clients, schedules their union across registered workers (heartbeats,
  graceful drain), dedups overlapping cells by content address, and
  journals campaigns so client reconnects and daemon restarts resume
  without recomputing finished cells.
- :class:`FaultPlan` -- deterministic fault injection for the remote and
  campaign tiers (``--fault-plan`` on workers and the daemon): a seeded,
  bounded schedule of drops, crashes, delays, corrupted/truncated trace
  frames, and torn journal appends, used by the chaos-equivalence
  harness to prove results stay bit-identical under failure.
- :class:`TraceProvider` -- per-sweep trace materialization: generation
  runs at most once per (workload, seed, budget), optionally backed by an
  on-disk :class:`~repro.workloads.trace_cache.TraceCache`.
- :class:`ResultStore` -- a content-addressed JSON cache; each cell is
  keyed by a stable fingerprint of (machine config, workload, budget);
  stores merge across hosts by content address
  (:meth:`ResultStore.merge`).
- :func:`run_experiment` -- spec + backend + store -> :class:`FigureResult`;
  ``run_experiment(matrix_spec(...))`` is the one-call serial form.
"""

from repro.experiments.backends import (
    CellExecutionError,
    ExecutionBackend,
    SerialBackend,
    execute_request,
    make_backend,
)
from repro.experiments.batch import BatchRunner, CostModel, session_cost_model
from repro.experiments.campaign import (
    CampaignBackend,
    CampaignClient,
    CampaignDaemon,
    CampaignError,
    CampaignUnreachableError,
    JournalScrubReport,
    scrub_journals,
)
from repro.experiments.faults import FaultEvent, FaultPlan
from repro.experiments.pool import shutdown_session_pools
from repro.experiments.remote import (
    CorruptTraceError,
    RemoteBackend,
    WorkerAgent,
    local_worker_fleet,
)
from repro.experiments.results import FigureResult
from repro.experiments.traces import TraceProvider, workload_key
from repro.experiments.run import run_experiment
from repro.experiments.spec import (
    DEFAULT_INSTS,
    ExperimentBuilder,
    ExperimentSpec,
    RunRequest,
    WorkloadSpec,
    matrix_spec,
    resolve_benchmarks,
)
from repro.experiments.store import (
    FsckReport,
    MergeReport,
    ResultMergeError,
    ResultStore,
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
    "ExperimentBuilder",
    "ExperimentSpec",
    "FaultEvent",
    "FaultPlan",
    "FigureResult",
    "FsckReport",
    "JournalScrubReport",
    "MergeReport",
    "RemoteBackend",
    "ResultMergeError",
    "ResultStore",
    "RunRequest",
    "SerialBackend",
    "TraceProvider",
    "WorkerAgent",
    "WorkloadSpec",
    "execute_request",
    "local_worker_fleet",
    "make_backend",
    "matrix_spec",
    "resolve_benchmarks",
    "run_experiment",
    "scrub_journals",
    "session_cost_model",
    "shutdown_session_pools",
    "workload_key",
]
