"""Execution backends: how a sweep's cells get simulated.

A backend turns a list of :class:`~repro.experiments.spec.RunRequest` cells
into a list of :class:`~repro.pipeline.stats.SimStats`, **positionally
aligned with the request list** -- completion order never leaks into
results, so every backend is deterministic and interchangeable.

:class:`SerialBackend` runs cells in-process through one
:class:`~repro.experiments.traces.TraceProvider` kept for its lifetime,
so consecutive cells of a workload replay one materialized trace.

For ``jobs > 1``, :func:`make_backend` returns the
:class:`~repro.experiments.pool.BatchRunner` (re-exported from
:mod:`repro.experiments`): a
:class:`~repro.experiments.remote.RemoteBackend` over the session's
loopback worker fleet, so a local parallel sweep is scheduled, shipped
and verified exactly like a remote one.  A failing cell surfaces as
:class:`CellExecutionError` carrying the cell's identity, not a bare
worker traceback.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.experiments.spec import RunRequest
from repro.experiments.traces import TraceProvider
from repro.isa.coltrace import ColumnTrace
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

ProgressFn = Callable[[str], None]


class CellExecutionError(RuntimeError):
    """A sweep cell failed; the message names the cell, the cause chains."""


class FleetLostError(CellExecutionError):
    """Every worker was lost with cells unfinished: the fleet failed, so
    the error says nothing about the cells themselves."""


def execute_request(
    request: RunRequest, trace: ColumnTrace | None = None
) -> SimStats:
    """Simulate one cell, materializing its trace when none is given."""
    from repro.pipeline.processor import Processor

    if trace is None:
        trace = request.workload.materialize(request.n_insts)
    return Processor(
        request.config, trace, validate=request.validate, warmup=request.warmup
    ).run()


class ExecutionBackend(Protocol):
    """Anything that can run a batch of cells.

    Implementations must return one :class:`SimStats` per request, in
    request order, regardless of internal scheduling.
    """

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]: ...


class SerialBackend:
    """In-process, in-order execution (the default).

    Traces are materialized once per (workload, n_insts) and replayed
    across consecutive cells, also across :meth:`run` calls (the fuzzer
    submits one cell at a time); with a ``trace_cache`` attached, repeated
    sweeps skip generation entirely and pay only the codec decode.  One
    trace is resident at a time: the provider drops the previous trace
    before it builds the next, so a sweep's trace memory is bounded by
    its largest trace.
    """

    def __init__(self, trace_cache: TraceCache | None = None) -> None:
        self.trace_cache = trace_cache
        #: The provider for the backend's lifetime; ``generations`` counts
        #: since creation.  Cells arrive workload-major, so the provider's
        #: one decoded slot gets every reuse, and serial runs never keep
        #: encoded bytes.
        self.last_provider = TraceProvider(cache=trace_cache)

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        provider = self.last_provider
        results = []
        for request in requests:
            if progress is not None:
                progress(request.describe())
            try:
                results.append(execute_request(request, provider.trace_for(request)))
            except Exception as exc:
                raise CellExecutionError(f"{request.describe()}: {exc}") from exc
        return results


def make_backend(
    jobs: int | None, trace_cache: TraceCache | None = None
) -> ExecutionBackend:
    """Backend for a ``--jobs`` setting: serial for 1/None, and above that
    a :class:`~repro.experiments.pool.BatchRunner` on ``jobs`` local
    worker processes (capped at the core count)."""
    from repro.experiments.pool import BatchRunner

    if jobs is None or jobs <= 1:
        return SerialBackend(trace_cache=trace_cache)
    return BatchRunner(jobs=jobs, trace_cache=trace_cache)
