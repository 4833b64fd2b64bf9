"""Per-sweep trace materialization: generate once, reuse everywhere.

The :class:`TraceProvider` is the single authority a sweep's backends go
through for workload traces.  It guarantees the sweep-level amortization
contract every backend is built on:

- ``WorkloadSpec.materialize`` runs **at most once** per (workload,
  seed, budget) per sweep, whatever the backend or worker count
  (``generations`` counts the traces actually generated so tests can
  prove it);
- the encoded (:mod:`repro.isa.codec`) form is memoized in-process for
  the backends that ship it until the trace has no pending or in-flight
  cell left (their dispatcher then calls :meth:`TraceProvider.release`) and,
  when a :class:`~repro.workloads.trace_cache.TraceCache` is attached,
  persisted across sweeps and processes;
- the decoded form is held for **one trace at a time**: the provider
  drops the trace it served last before it decodes or generates the
  next, so a serial sweep's trace memory is one trace, never two;
- traces flow column-native end to end: the generator emits a
  :class:`~repro.isa.coltrace.ColumnTrace`, the codec ships its columns
  verbatim, and decode rebuilds columns (never a ``DynInst`` graph) that
  the simulator core consumes directly, with ``TraceMeta`` derived once
  per trace.

Fixed-trace workloads (kernels, hand-built streams) participate too: their
"generation" is free, but encoding them once lets the worker-fleet
backends ship compact codec bytes instead of pickling the object per cell.
"""

from __future__ import annotations

from repro.experiments.spec import RunRequest, WorkloadSpec
from repro.isa.codec import TraceCodecError, decode_trace, encode_trace, verify_encoded
from repro.isa.coltrace import ColumnTrace
from repro.workloads.registry import workload_key  # noqa: F401  (re-exported API)
from repro.workloads.trace_cache import TraceCache


def request_key(request: RunRequest) -> str:
    return workload_key(request.workload, request.n_insts)


class TraceProvider:
    """Memoizing generate/encode/decode pipeline for one sweep.

    :meth:`trace` keeps the one trace it served last (serial sweeps visit
    cells workload-major, so one slot gets every reuse) and no bytes; it
    empties that slot *before* building another trace, so the last and
    the next trace are never resident together.
    :meth:`encoded` keeps the ~4x smaller bytes until :meth:`release`, so
    every worker that asks for a trace while its cells run gets the same
    buffer, and keeps no decoded trace.  ``generations`` and
    ``disk_hits`` count over the provider's whole life.
    """

    def __init__(self, cache: TraceCache | None = None) -> None:
        self.cache = cache
        self._encoded: dict[str, bytes] = {}
        self._decoded: dict[str, ColumnTrace] = {}
        #: Traces actually generated (the amortization proof).
        self.generations = 0
        #: On-disk cache entries actually served: shipped as bytes, or
        #: decoded in full (an entry that fails decode is no hit).
        self.disk_hits = 0

    # -- encoded form --------------------------------------------------------

    def encoded(self, workload: WorkloadSpec, n_insts: int) -> bytes:
        """The encoded trace for a workload, generating at most once."""
        key = workload_key(workload, n_insts)
        data = self._encoded.get(key)
        if data is not None:
            return data
        data = self._cached(workload, key)
        if data is not None:
            self.disk_hits += 1
        else:
            # Reuse a decoded trace trace() may already have built.
            trace = self._decoded.get(key)
            if trace is None:
                trace = self._generate(workload, n_insts)
            data = encode_trace(trace)
            if self.cache is not None and workload.persistable:
                self.cache.save(key, data)
        self._encoded[key] = data
        return data

    def release(self, key: str) -> None:
        """Drop the encoded bytes of trace ``key``; a later
        :meth:`encoded` reads the disk cache or generates again."""
        self._encoded.pop(key, None)

    @property
    def held(self) -> int:
        """Encoded payloads memoized now."""
        return len(self._encoded)

    # -- decoded form --------------------------------------------------------

    def trace(self, workload: WorkloadSpec, n_insts: int) -> ColumnTrace:
        """The decoded trace, reusing any memoized form; only the decoded
        memo is filled, so a serial provider holds no encoded payloads.

        The memo is emptied before another trace is decoded or
        generated, so the provider never keeps two traces resident."""
        key = workload_key(workload, n_insts)
        trace = self._decoded.get(key)
        if trace is not None:
            return trace
        self._decoded.clear()
        data = self._encoded.get(key)
        from_disk = data is None
        if from_disk:
            data = self._cached(workload, key)
        trace = None
        if data is not None:
            try:
                trace = decode_trace(data)
            except TraceCodecError:
                # A disk-cache entry can pass the cheap verification yet
                # fail full decode (e.g. a same-version build with other
                # columns): it costs one regeneration, never a crashed sweep.
                self._encoded.pop(key, None)
            else:
                if from_disk:
                    self.disk_hits += 1
        if trace is None:
            trace = self._generate(workload, n_insts)
            if self.cache is not None and workload.persistable:
                self.cache.save(key, encode_trace(trace))
        self._decoded[key] = trace
        return trace

    def trace_for(self, request: RunRequest) -> ColumnTrace:
        return self.trace(request.workload, request.n_insts)

    def has_encoded(self, workload: WorkloadSpec, n_insts: int) -> bool:
        """Whether :meth:`encoded` would succeed *without generating* --
        the bytes are memoized, or the on-disk cache holds an entry.  Lets
        remote dispatch pin a trace's content digest when it is already
        known while preserving the laziness that makes warm worker caches
        free (a cold client never generates just to name a digest)."""
        key = workload_key(workload, n_insts)
        if key in self._encoded:
            return True
        return (
            self.cache is not None
            and workload.persistable
            and self.cache.path_for(key).is_file()
        )

    # -- internals -----------------------------------------------------------

    def _cached(self, workload: WorkloadSpec, key: str) -> bytes | None:
        """The on-disk cache's entry for ``key``, if present and sound."""
        if self.cache is None or not workload.persistable:
            return None
        data = self.cache.load(key)
        if data is None:
            return None
        try:
            # Cheap structural+checksum validation before trusting a shared
            # on-disk entry; no column decode -- fleet sweeps ship the
            # bytes and never decode here.
            verify_encoded(data)
        except TraceCodecError:
            return None
        return data

    def _generate(self, workload: WorkloadSpec, n_insts: int) -> ColumnTrace:
        # Fixed traces are returned as-is, and uncounted: they are already
        # columns, and simulators derive their metadata from the columns.
        if workload.trace is None:
            self.generations += 1
        return workload.materialize(n_insts)
