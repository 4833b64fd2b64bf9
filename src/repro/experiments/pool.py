"""Local parallel sweeps: the session worker fleet and the ``BatchRunner``.

Every local parallel sweep in a process runs on a *session fleet*: one
set of loopback ``svw-repro worker`` agents per worker count
(:func:`~repro.experiments.remote.spawn_worker_agents`).  The fleet is
started by the first run that needs it and reused by every later one,
so a multi-sweep session -- ``svw-repro all`` runs eight figure sweeps
back to back -- pays agent start-up once, and the agents' decoded-trace
memos stay warm across figures that share workloads.  A fleet with an
exited agent is replaced at the next acquisition.  Fleets are stopped at
interpreter exit, or explicitly via :func:`shutdown_session_pools`.

:class:`BatchRunner` (what ``--jobs N`` selects) is a
:class:`~repro.experiments.remote.RemoteBackend` over that fleet, so
local and remote sweeps share one scheduler
(:class:`~repro.experiments.scheduler.Scheduler`), one trace wire and
one worker.  Fleet lifetime changes *scheduling* only -- results remain
positionally aligned and bit-identical to serial execution.
"""

from __future__ import annotations

import atexit
import os
import subprocess
from typing import Sequence

from repro.experiments.backends import ProgressFn
from repro.experiments.remote import (
    RemoteBackend,
    spawn_worker_agents,
    stop_worker_agents,
)
from repro.experiments.scheduler import CostModel, session_cost_model
from repro.experiments.spec import RunRequest
from repro.experiments.traces import TraceProvider
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

#: Live session fleets keyed by worker count: each agent and its address.
_session_fleets: dict[int, list[tuple[subprocess.Popen, str]]] = {}


def session_fleet(workers: int) -> list[str]:
    """Addresses of the session fleet of ``workers`` agents, started or
    replaced on demand."""
    fleet = _session_fleets.get(workers)
    if fleet is not None and any(agent.poll() is not None for agent, _ in fleet):
        del _session_fleets[workers]
        stop_worker_agents([agent for agent, _ in fleet])
        fleet = None
    if fleet is None:
        fleet = spawn_worker_agents(workers)
        _session_fleets[workers] = fleet
    return [address for _, address in fleet]


def shutdown_session_pools(wait: bool = True) -> None:
    """Stop every session fleet's agents (idempotent; also runs atexit)."""
    while _session_fleets:
        _, fleet = _session_fleets.popitem()
        stop_worker_agents([agent for agent, _ in fleet], wait=wait)


atexit.register(shutdown_session_pools)


class BatchRunner:
    """Local parallel sweep execution on the session fleet.

    ``jobs`` is the intended parallelism (default: the core count); the
    fleet has ``workers = min(jobs, cores)`` agents, because agents beyond
    the core count only timeshare the same CPUs.  ``cost_model`` orders
    the cells and defaults to the session-wide model, so later sweeps are
    ordered by earlier sweeps' timings.
    """

    def __init__(
        self,
        jobs: int | None = None,
        trace_cache: TraceCache | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or os.cpu_count() or 1
        self.workers = max(1, min(self.jobs, os.cpu_count() or self.jobs))
        self.trace_cache = trace_cache
        self.cost_model = cost_model if cost_model is not None else session_cost_model()
        #: Provider of the most recent run, kept for its counters
        #: (``generations``, ``disk_hits``); it holds no bytes after a run.
        self.last_provider: TraceProvider | None = None

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        backend = RemoteBackend(
            session_fleet(self.workers),
            trace_cache=self.trace_cache,
            cost_model=self.cost_model,
        )
        try:
            return backend.run(requests, progress)
        finally:
            self.last_provider = backend.last_provider
