"""Execution backends: how a sweep's cells get simulated.

A backend turns a list of :class:`~repro.experiments.spec.RunRequest` cells
into a list of :class:`~repro.pipeline.stats.SimStats`, **positionally
aligned with the request list** -- completion order never leaks into
results, so every backend is deterministic and interchangeable.

:class:`SerialBackend` runs cells in-process, materializing each workload's
trace at most once per sweep through a
:class:`~repro.experiments.traces.TraceProvider`.

For ``jobs > 1``, :func:`make_backend` returns the
:class:`~repro.experiments.batch.BatchRunner` (re-exported from
:mod:`repro.experiments`): the parent generates and encodes each workload
trace exactly once and publishes it through
:mod:`~repro.experiments.transport` (shared memory, tempfile-mmap
fallback) with :func:`run_with_published_traces`; workers attach, decode
straight into a column-native :class:`~repro.isa.coltrace.ColumnTrace`
(:func:`decoded_trace`, memoized per process), and run all configs of a
workload in a single pass over it.  A failing cell surfaces as
:class:`CellExecutionError` carrying the cell's identity, not a bare
worker traceback.
"""

from __future__ import annotations

import concurrent.futures
import gc
from typing import Callable, Protocol, Sequence

from repro.experiments.pool import acquire_pool
from repro.experiments.spec import RunRequest
from repro.experiments.traces import TraceProvider
from repro.experiments.transport import TraceRef, open_trace, publish_trace, release_trace
from repro.isa.codec import decode_trace
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import Trace
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

ProgressFn = Callable[[str], None]


class CellExecutionError(RuntimeError):
    """A sweep cell failed; the message names the cell, the cause chains."""


def execute_request(
    request: RunRequest, trace: Trace | ColumnTrace | None = None
) -> SimStats:
    """Simulate one cell.  Top-level so process pools can pickle it."""
    if trace is None:
        trace = request.workload.materialize(request.n_insts)
    return Processor(
        request.config, trace, validate=request.validate, warmup=request.warmup
    ).run()


#: Worker-process memo of decoded traces, keyed by content key.  Two slots:
#: a batch chunk holds one workload's cells, so the common case is a
#: single decode per workload per worker; the second slot absorbs the
#: overlap when a worker alternates between two workloads' chunks.
_WORKER_TRACE_SLOTS = 2
_worker_traces: dict[str, ColumnTrace] = {}


def decoded_trace(ref: TraceRef) -> ColumnTrace:
    """Worker-side decode of a published trace, memoized per process.

    Decoding is column-native: the bytes become typed-array columns (plus
    lazily-built metadata/hot views), never a ``DynInst`` object graph, so
    the per-worker footprint is a fraction of the old decoded trace.  The
    result is long-lived and acyclic, so after memoizing it the heap is
    frozen into the permanent generation -- subsequent cyclic-GC passes
    stop re-walking it.  Eviction still frees evicted traces (refcounting
    does not care about freezing).  With a session-scoped pool this memo
    survives across sweeps, so figures sharing workloads decode nothing.
    """
    trace = _worker_traces.get(ref.key)
    if trace is None:
        enabled = gc.isenabled()
        if enabled:
            gc.disable()  # decode allocates ~n objects; don't re-scan mid-build
        try:
            with open_trace(ref) as buf:
                trace = decode_trace(buf)
        finally:
            if enabled:
                gc.enable()
        _worker_traces[ref.key] = trace
        while len(_worker_traces) > _WORKER_TRACE_SLOTS:
            _worker_traces.pop(next(iter(_worker_traces)))
        gc.collect()
        gc.freeze()
    return trace


def paused_gc(fn, *args):
    """Run ``fn`` with cyclic GC paused (simulation allocates heavily but
    leaks no cycles per run; one collection afterwards settles the heap)."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


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
    across configurations; with a ``trace_cache`` attached, repeated
    sweeps skip generation entirely and pay only the codec decode.
    """

    def __init__(self, trace_cache: TraceCache | None = None) -> None:
        self.trace_cache = trace_cache
        #: The provider of the most recent :meth:`run` (introspection: its
        #: ``generations`` counter is the sweep's trace-generation count).
        self.last_provider: TraceProvider | None = None

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        # Cells arrive workload-major, so a single-slot decoded memo gets
        # every reuse while keeping peak memory at one trace, not one per
        # workload in the sweep.
        provider = TraceProvider(cache=self.trace_cache, decoded_capacity=1)
        self.last_provider = provider
        results = []
        for request in requests:
            if progress is not None:
                progress(request.describe())
            try:
                results.append(execute_request(request, provider.trace_for(request)))
            except Exception as exc:
                raise CellExecutionError(f"{request.describe()}: {exc}") from exc
        return results


def run_with_published_traces(
    workers: int,
    provider: TraceProvider,
    carrier: str | None,
    units,
    submit,
    collect,
    describe,
    pool_scope: str = "sweep",
) -> None:
    """The pooled execution protocol, single-sourced for every backend.

    ``units`` is an iterable of ``(trace_key, exemplar_request, payload)``
    work units.  For each unit, the exemplar's trace is
    encoded and published **at most once per key**, in submission order,
    so workers chew on earlier units while the parent prepares the next
    workload.  ``submit(pool, ref, payload)`` starts a unit,
    ``collect(payload, result)`` consumes its result, and any failure is
    wrapped as :class:`CellExecutionError` via ``describe(payload)`` after
    cancelling outstanding work (fail fast, don't drain the sweep).
    Published segments are always released after the pool drains --
    keeping this ordering correct in one place is the point of the helper.
    """
    published: dict[str, TraceRef] = {}
    try:
        with acquire_pool(workers, pool_scope) as pool:
            futures: dict[concurrent.futures.Future, object] = {}
            try:
                for key, request, payload in units:
                    ref = published.get(key)
                    if ref is None:
                        ref = publish_trace(
                            key,
                            provider.encoded(request.workload, request.n_insts),
                            carrier=carrier,
                        )
                        published[key] = ref
                    futures[submit(pool, ref, payload)] = payload
                for future in concurrent.futures.as_completed(futures):
                    payload = futures[future]
                    try:
                        result = future.result()
                    except CellExecutionError:
                        raise
                    except Exception as exc:
                        raise CellExecutionError(
                            f"{describe(payload)}: {exc}"
                        ) from exc
                    collect(payload, result)
            except BaseException:
                # Whatever failed -- a worker, a publish, collect() --
                # cancel what has not started and drain what has before
                # the finally below unlinks the published segments: a
                # session-scoped pool outlives this call, and its
                # still-running chunks must not watch their trace vanish
                # mid-decode (sweep scope got this for free from the
                # executor's shutdown-on-exit; session scope does not).
                for pending in futures:
                    pending.cancel()
                concurrent.futures.wait(list(futures))
                raise
    finally:
        for ref in published.values():
            release_trace(ref)


def make_backend(
    jobs: int | None,
    trace_cache: TraceCache | None = None,
    pool_scope: str = "sweep",
    campaign: str | None = None,
) -> ExecutionBackend:
    """Backend for a ``--jobs`` setting: serial for 1/None, batched above.

    Parallel sweeps get the :class:`~repro.experiments.batch.BatchRunner`
    (single-pass multi-config execution over shared traces).
    ``pool_scope="session"`` makes the batched
    backend reuse one long-lived worker pool across runs.  A ``campaign``
    daemon address trumps ``jobs``: the sweep becomes a campaign
    submission executed by the daemon's worker fleet
    (:class:`~repro.experiments.campaign.CampaignBackend`).
    """
    if campaign is not None:
        from repro.experiments.campaign import CampaignBackend

        return CampaignBackend(campaign)
    from repro.experiments.batch import BatchRunner

    if jobs is None or jobs <= 1:
        return SerialBackend(trace_cache=trace_cache)
    return BatchRunner(jobs=jobs, trace_cache=trace_cache, pool_scope=pool_scope)
