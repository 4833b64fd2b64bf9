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
trace exactly once and ships the encoded bytes inside each chunk task on
the session worker pool (:mod:`~repro.experiments.pool`); workers decode
straight into a column-native :class:`~repro.isa.coltrace.ColumnTrace`
(memoized per process) and run all configs of a workload in a single
pass over it.  A failing cell surfaces as :class:`CellExecutionError`
carrying the cell's identity, not a bare worker traceback.
"""

from __future__ import annotations

import gc
from typing import Callable, Protocol, Sequence

from repro.experiments.spec import RunRequest
from repro.experiments.traces import TraceProvider
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
    """Simulate one cell, materializing its trace when none is given."""
    if trace is None:
        trace = request.workload.materialize(request.n_insts)
    return Processor(
        request.config, trace, validate=request.validate, warmup=request.warmup
    ).run()


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


def make_backend(
    jobs: int | None, trace_cache: TraceCache | None = None
) -> ExecutionBackend:
    """Backend for a ``--jobs`` setting: serial for 1/None, batched above.

    Parallel sweeps get the :class:`~repro.experiments.batch.BatchRunner`
    (single-pass multi-config execution over shared traces on the session
    worker pool).
    """
    from repro.experiments.batch import BatchRunner

    if jobs is None or jobs <= 1:
        return SerialBackend(trace_cache=trace_cache)
    return BatchRunner(jobs=jobs, trace_cache=trace_cache)
