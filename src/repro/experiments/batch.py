"""Single-pass multi-config sweep execution (the ``BatchRunner``).

The figure sweeps are matrices: every workload is simulated under several
machine configurations.  Cell-granular pools ship one task per cell and
pay trace materialization per task; the :class:`BatchRunner` instead
groups a sweep's cells by workload and runs **all configs of one workload
in a single pass over one decoded trace**:

- the parent generates + encodes each workload trace at most once per
  sweep (:class:`~repro.experiments.traces.TraceProvider`);
- each worker task is a *chunk* -- one workload's configs (or a slice of
  them when the sweep has fewer workloads than workers) -- that carries
  the encoded trace bytes, decodes them once into a column-native
  :class:`~repro.isa.coltrace.ColumnTrace` (memoized per worker, so a
  workload split over several chunks decodes once per worker) and feeds
  the same columns and ``TraceMeta`` to every
  :class:`~repro.pipeline.processor.Processor` it builds;
- chunks run on the process-wide session pool
  (:mod:`~repro.experiments.pool`), and ``jobs <= 1`` runs the same chunk
  loop in-process on the provider's decoded trace;
- chunks are scheduled costliest-first, where cost is *adaptive*: a
  :class:`CostModel` weights each cell by its measured per-config
  seconds-per-instruction (seeded by heuristics -- ``+PERFECT``-style
  ideal re-execution simulates slower than timing-true configs -- and
  updated from every completed cell, persisting across the sweeps of a
  session), so wide sweeps balance by expected *work*, not raw cell
  count.

Results remain positionally aligned with the request list and bit-identical
to :class:`~repro.experiments.backends.SerialBackend` -- the trace replayed
in a worker is the codec round-trip of the trace the serial backend would
generate, and the codec round-trip is exact.  The cost model only reorders
and resizes chunks; it can never change a cell's result.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from pathlib import Path
from typing import Sequence

from repro.experiments.backends import CellExecutionError, ProgressFn
from repro.experiments.pool import session_pool
from repro.experiments.spec import RunRequest
from repro.experiments.traces import TraceProvider, request_key
from repro.isa.codec import decode_trace
from repro.isa.coltrace import ColumnTrace
from repro.pipeline.config import MachineConfig, RexMode
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

#: One cell of a chunk, as shipped to workers: (config, warmup, validate,
#: human-readable identity for error reports).
_CellPayload = tuple[MachineConfig, int, bool, str]


class CostModel:
    """Relative simulation cost of a sweep cell, learned from timings.

    Tracks an exponential moving average of measured seconds-per-committed-
    instruction per configuration name.  Unmeasured configurations fall
    back to a heuristic: ``RexMode.PERFECT`` machines re-derive the
    program-order value of every marked load at commit, which reliably
    simulates slower than timing-true re-execution, so they weigh heavier.
    Weights are *relative* (measured rates are normalized by the running
    mean), making measured and heuristic cells comparable.

    The model feeds :class:`BatchRunner` scheduling only -- grouping order
    and chunk split points -- never results; a wildly wrong model costs
    balance, not correctness.
    """

    #: Heuristic weight for ideal-re-execution configs before any timing.
    PERFECT_WEIGHT = 1.6

    #: Bump when the persisted payload layout changes.
    SCHEMA_VERSION = 1

    __slots__ = ("_rates",)

    def __init__(self) -> None:
        #: config name -> EMA of seconds per instruction.
        self._rates: dict[str, float] = {}

    def weight(self, config: MachineConfig) -> float:
        """Relative per-instruction cost of ``config`` (1.0 = average)."""
        rate = self._rates.get(config.name)
        if rate is not None and self._rates:
            mean = sum(self._rates.values()) / len(self._rates)
            if mean > 0.0:
                return rate / mean
        return self.PERFECT_WEIGHT if config.rex_mode is RexMode.PERFECT else 1.0

    def observe(self, config: MachineConfig, n_insts: int, seconds: float) -> None:
        """Fold one measured cell (``n_insts`` simulated in ``seconds``) in."""
        if n_insts <= 0 or seconds <= 0.0:
            return
        rate = seconds / n_insts
        previous = self._rates.get(config.name)
        self._rates[config.name] = (
            rate if previous is None else 0.5 * previous + 0.5 * rate
        )

    def cost(self, request: RunRequest) -> float:
        """Expected cost of one cell (weighted instruction budget)."""
        return request.n_insts * self.weight(request.config)

    def expected_seconds(self, config: MachineConfig, n_insts: int) -> float | None:
        """Predicted wall seconds for ``n_insts`` on ``config``, or None
        when the config was never measured.

        Unlike :meth:`weight` this is an *absolute* estimate, so there is
        no heuristic fallback -- callers deriving job deadlines must treat
        an unmeasured config as "no deadline", never guess one (a wrong
        relative weight costs balance; a wrong absolute deadline would
        strike healthy workers).
        """
        rate = self._rates.get(config.name)
        if rate is None or rate <= 0.0 or n_insts <= 0:
            return None
        return rate * n_insts

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {"schema": self.SCHEMA_VERSION, "rates": dict(self._rates)}

    def save(self, path: str | os.PathLike) -> None:
        """Persist the learned rates (atomic write; see :func:`load_from`).

        The canonical location is next to the
        :class:`~repro.experiments.store.ResultStore`
        (``ResultStore.cost_model_path``), so the cache directory that
        makes results durable also makes *scheduling knowledge* durable:
        a cold session's first sweep chunks -- and a
        :class:`~repro.experiments.remote.RemoteBackend` dispatches -- on
        the previous session's measured per-config rates instead of the
        heuristic seed.
        """
        from repro.ioutil import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), indent=1, sort_keys=True))

    def load_from(self, path: str | os.PathLike) -> bool:
        """Fold persisted rates in (disk seeds, fresher in-memory wins).

        Returns True when rates were loaded.  A missing, corrupt, or
        stale-schema file is a plain cold start, never an error -- the
        model only steers scheduling.
        """
        try:
            payload = json.loads(Path(path).read_text())
            if payload["schema"] != self.SCHEMA_VERSION:
                return False
            rates = {
                str(name): float(rate)
                for name, rate in payload["rates"].items()
                if float(rate) > 0.0
            }
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return False
        self._rates = {**rates, **self._rates}
        return True


#: Session-wide default model: sweeps run back to back (``svw-repro all``)
#: seed each other's chunking, which is the point of measuring at all.
_SESSION_COST_MODEL = CostModel()


def session_cost_model() -> CostModel:
    """The process-wide :class:`CostModel` shared by every backend that
    schedules on expected cost (:class:`BatchRunner` chunking,
    :class:`~repro.experiments.remote.RemoteBackend` dispatch order).  The
    CLI loads persisted rates into it when ``--cache-dir`` names a store,
    and saves them back on exit."""
    return _SESSION_COST_MODEL


#: Worker-process memo of decoded traces, keyed by content key.  Two slots:
#: a batch chunk holds one workload's cells, so the common case is a
#: single decode per workload per worker; the second slot absorbs the
#: overlap when a worker alternates between two workloads' chunks.
_WORKER_TRACE_SLOTS = 2
_worker_traces: dict[str, ColumnTrace] = {}


def _decoded(key: str, data: bytes) -> ColumnTrace:
    """Worker-side decode of a chunk's trace bytes, memoized per process.

    Decoding is column-native: the bytes become typed-array columns (plus
    lazily-built metadata/hot views), never a ``DynInst`` object graph.
    The trace is acyclic, and so is every simulation run over it, so
    refcounting frees an evicted trace and each finished cell without a
    cyclic collection.  Session-pool workers outlive a sweep, so figures
    sharing workloads decode nothing.
    """
    trace = _worker_traces.get(key)
    if trace is None:
        trace = decode_trace(data)
        _worker_traces[key] = trace
        while len(_worker_traces) > _WORKER_TRACE_SLOTS:
            _worker_traces.pop(next(iter(_worker_traces)))
    return trace


def _simulate_chunk(
    trace: ColumnTrace, cells: list[_CellPayload]
) -> list[tuple[SimStats, float]]:
    """Simulate every cell of a chunk against one trace.

    Returns ``(stats, seconds)`` per cell so the parent's cost model can
    learn real per-config rates.  Each finished
    :class:`~repro.pipeline.processor.Processor` is freed by refcounting
    as the next one replaces it.
    """
    results = []
    for config, warmup, validate, describe in cells:
        started = time.perf_counter()
        try:
            stats = Processor(config, trace, validate=validate, warmup=warmup).run()
        except Exception as exc:
            raise CellExecutionError(f"{describe}: {exc}") from exc
        results.append((stats, time.perf_counter() - started))
    return results


def _run_chunk(
    key: str, data: bytes, cells: list[_CellPayload]
) -> list[tuple[SimStats, float]]:
    """Worker target: decode the chunk's trace bytes once, run its cells."""
    return _simulate_chunk(_decoded(key, data), cells)


class BatchRunner:
    """Workload-grouped, single-pass sweep execution.

    ``jobs <= 1`` runs the same chunk loop in-process (no pool) -- useful
    for tests and for machines where fork is costly.  Pooled runs share
    the process-wide session pool (see :mod:`repro.experiments.pool`);
    ``cost_model`` defaults to a shared session-wide model so later
    sweeps chunk on earlier sweeps' timings.
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
        #: Actual pool size: workers beyond the physical core count only
        #: timeshare the same CPUs and thrash their caches between
        #: half-finished simulations, so the pool never oversubscribes the
        #: machine.  ``jobs`` still expresses the *intended* parallelism
        #: and keeps driving chunk splitting (a chunk surplus is absorbed
        #: by the worker-local decode memo; oversubscribed workers are
        #: pure loss).
        self.workers = max(1, min(self.jobs, os.cpu_count() or self.jobs))
        self.trace_cache = trace_cache
        self.cost_model = cost_model if cost_model is not None else _SESSION_COST_MODEL
        #: Provider of the most recent run (its ``generations`` counter is
        #: the amortization proof surfaced by ``svw-repro bench-sweep``).
        self.last_provider: TraceProvider | None = None

    # -- scheduling ----------------------------------------------------------

    def _groups(self, requests: Sequence[RunRequest]) -> list[tuple[str, list[int]]]:
        """Cells grouped by materialized trace, costliest-expected-first.

        Expected work is the cost model's weighted instruction budget; the
        workload-name tiebreak keeps the order deterministic across runs
        for a given model state.
        """
        by_key: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            by_key.setdefault(request_key(request), []).append(index)
        cost = self.cost_model.cost
        return sorted(
            by_key.items(),
            key=lambda item: (
                -sum(cost(requests[i]) for i in item[1]),
                requests[item[1][0]].workload.name,
            ),
        )

    def _chunks(
        self, requests: Sequence[RunRequest]
    ) -> list[tuple[str, list[int]]]:
        """Groups split until the pool has work for every worker.

        Splitting trades one extra decode (amortized by the worker-local
        trace memo) for parallelism, so it only happens while chunks
        outnumbering workers is impossible and some chunk still has more
        than one cell.  The costliest chunk splits first, at the cell
        boundary that best balances its two halves' expected cost --
        with a learned model this keeps one ``+PERFECT`` cell from
        dragging a whole half-chunk behind it.
        """
        chunks = self._groups(requests)
        cost = self.cost_model.cost
        chunk_cost = lambda indices: sum(cost(requests[i]) for i in indices)  # noqa: E731
        while len(chunks) < self.jobs:
            # Split the costliest chunk that still *can* split -- a
            # single-cell chunk may well be the costliest (one slow config
            # on one workload) without meaning the others are done too.
            splittable = [item for item in chunks if len(item[1]) >= 2]
            if not splittable:
                break
            key, widest = max(
                splittable, key=lambda item: (chunk_cost(item[1]), len(item[1]))
            )
            chunks.remove((key, widest))
            # Prefix-cost split point closest to half the chunk's cost
            # (always leaving at least one cell on each side).
            total = chunk_cost(widest)
            prefix = 0.0
            split = 1
            for position in range(len(widest) - 1):
                prefix += cost(requests[widest[position]])
                split = position + 1
                if prefix * 2 >= total:
                    break
            chunks.append((key, widest[:split]))
            chunks.append((key, widest[split:]))
            chunks.sort(
                key=lambda item: (
                    -chunk_cost(item[1]),
                    requests[item[1][0]].workload.name,
                    item[1][0],
                )
            )
        return chunks

    # -- execution -----------------------------------------------------------

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        requests = list(requests)
        provider = TraceProvider(cache=self.trace_cache, decoded_capacity=1)
        self.last_provider = provider
        observe = self.cost_model.observe
        results: list[SimStats | None] = [None] * len(requests)

        def cells(indices: list[int]) -> list[_CellPayload]:
            return [
                (
                    requests[i].config,
                    requests[i].warmup,
                    requests[i].validate,
                    requests[i].describe(),
                )
                for i in indices
            ]

        def collect(
            indices: list[int], chunk_results: list[tuple[SimStats, float]]
        ) -> None:
            for index, (stats, seconds) in zip(indices, chunk_results):
                results[index] = stats
                observe(requests[index].config, requests[index].n_insts, seconds)
                if progress is not None:
                    progress(f"{requests[index].describe()} [done]")

        chunks = self._chunks(requests)
        if self.jobs <= 1 or len(requests) <= 1:
            for _, indices in chunks:
                trace = provider.trace_for(requests[indices[0]])
                collect(indices, _simulate_chunk(trace, cells(indices)))
            return results  # type: ignore[return-value]

        pool = session_pool(self.workers)
        futures: dict[concurrent.futures.Future, list[int]] = {}
        try:
            # Submit in schedule order: workers chew on earlier chunks while
            # the parent generates and encodes the next workload's trace.
            for key, indices in chunks:
                exemplar = requests[indices[0]]
                data = provider.encoded(exemplar.workload, exemplar.n_insts)
                futures[pool.submit(_run_chunk, key, data, cells(indices))] = indices
            for future in concurrent.futures.as_completed(futures):
                indices = futures[future]
                try:
                    chunk_results = future.result()
                except CellExecutionError:
                    raise
                except Exception as exc:
                    # A lost worker (BrokenProcessPool) or a result that
                    # failed to cross the pipe: name the chunk's first cell.
                    raise CellExecutionError(
                        f"{requests[indices[0]].describe()}: {exc}"
                    ) from exc
                collect(indices, chunk_results)
        except BaseException:
            # Fail fast: the session pool outlives this sweep, so drop the
            # chunks that have not started rather than draining them.
            for pending in futures:
                pending.cancel()
            raise
        return results  # type: ignore[return-value]
