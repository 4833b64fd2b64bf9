"""Per-sweep trace materialization: generate once, reuse everywhere.

The :class:`TraceProvider` is the single authority a sweep's backends go
through for workload traces.  It guarantees the sweep-level amortization
contract the batch subsystem is built on:

- ``generate_trace`` runs **at most once** per (workload, seed, budget)
  per sweep, whatever the backend or worker count (``generations``
  counts actual generator invocations so tests can prove it);
- the encoded (:mod:`repro.isa.codec`) form is memoized in-process and,
  when a :class:`~repro.workloads.trace_cache.TraceCache` is attached,
  persisted across sweeps and processes;
- traces flow column-native end to end: the generator emits a
  :class:`~repro.isa.coltrace.ColumnTrace`, the codec ships its columns
  verbatim, and decode rebuilds columns (never a ``DynInst`` graph) that
  the simulator core consumes directly, with ``TraceMeta`` derived once
  per trace.

Fixed-trace workloads (kernels, hand-built streams) participate too: their
"generation" is free, but encoding them once lets pooled and remote
backends ship compact codec bytes instead of pickling the object per cell.
"""

from __future__ import annotations

from repro.experiments.spec import RunRequest, WorkloadSpec
from repro.isa.codec import TraceCodecError, decode_trace, encode_trace, verify_encoded
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import Trace
from repro.workloads.registry import workload_key  # noqa: F401  (re-exported API)
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace_cache import TraceCache


def request_key(request: RunRequest) -> str:
    return workload_key(request.workload, request.n_insts)


class TraceProvider:
    """Memoizing generate/encode/decode pipeline for one sweep.

    ``decoded_capacity`` bounds the in-memory decoded-trace memo (sweeps
    visit workloads in grouped order, so a small window gets every reuse
    while peak memory stays at a couple of traces; encoded bytes are ~4x
    smaller and kept for the whole sweep so every chunk of a workload
    ships the same buffer).
    """

    def __init__(self, cache: TraceCache | None = None, decoded_capacity: int = 2) -> None:
        self.cache = cache
        self.decoded_capacity = max(1, decoded_capacity)
        self._encoded: dict[str, bytes] = {}
        self._decoded: dict[str, Trace | ColumnTrace] = {}
        #: Actual ``generate_trace`` invocations (the amortization proof).
        self.generations = 0
        #: Encoded payloads served from the on-disk cache.
        self.disk_hits = 0

    # -- encoded form --------------------------------------------------------

    def encoded(self, workload: WorkloadSpec, n_insts: int) -> bytes:
        """The encoded trace for a workload, generating at most once."""
        key = workload_key(workload, n_insts)
        data = self._encoded.get(key)
        if data is not None:
            return data
        if self.cache is not None and workload.persistable:
            data = self.cache.load(key)
            if data is not None:
                try:
                    # Cheap structural+checksum validation before trusting a
                    # shared on-disk entry; no DynInst materialization --
                    # pooled sweeps ship the bytes and never decode here.
                    verify_encoded(data)
                except TraceCodecError:
                    data = None
                else:
                    self.disk_hits += 1
        if data is None:
            # Reuse a decoded trace the serial path may already have built;
            # generation stays at-most-once even when trace() came first.
            trace = self._decoded.get(key)
            if trace is None:
                trace = self._generate(workload, n_insts)
                self._remember_decoded(key, trace)
            data = encode_trace(trace)
            if self.cache is not None and workload.persistable:
                self.cache.save(key, data)
        self._encoded[key] = data
        return data

    # -- decoded form --------------------------------------------------------

    def trace(self, workload: WorkloadSpec, n_insts: int) -> Trace | ColumnTrace:
        """The decoded trace (column-native for generated workloads),
        reusing any memoized form."""
        key = workload_key(workload, n_insts)
        trace = self._decoded.get(key)
        if trace is not None:
            return trace
        data = self._encoded.get(key)
        if data is None:
            if self.cache is None:
                # Nothing would consume the encoded form (no disk cache;
                # pooled backends call encoded() themselves), so the in-process
                # serial path generates directly and skips encode entirely.
                trace = self._generate(workload, n_insts)
                self._remember_decoded(key, trace)
                return trace
            # Fill the encoded memo too: a later encoded() call for the
            # same workload must not regenerate.
            self.encoded(workload, n_insts)
            trace = self._decoded.get(key)
            if trace is not None:
                return trace
            data = self._encoded[key]
        try:
            trace = decode_trace(data)
        except TraceCodecError:
            # A disk-cache entry can pass the cheap verification yet fail
            # full decode (e.g. a same-version build with different
            # columns); the documented contract is that any undecodable
            # entry costs one regeneration, never a crashed sweep.
            self._encoded.pop(key, None)
            trace = self._generate(workload, n_insts)
            self._encoded[key] = encode_trace(trace)
            if self.cache is not None and workload.persistable:
                self.cache.save(key, self._encoded[key])
        self._remember_decoded(key, trace)
        return trace

    def trace_for(self, request: RunRequest) -> Trace | ColumnTrace:
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

    def _generate(self, workload: WorkloadSpec, n_insts: int) -> Trace | ColumnTrace:
        if workload.trace is not None:
            # Fixed traces are returned as-is: the codec columnizes (and
            # caches the columns) on encode, and simulators derive their
            # metadata from the columns, so nothing needs pre-building.
            return workload.trace
        self.generations += 1
        if workload.profile is not None and workload.mutation is None:
            # Plain profiles keep the historical module-level seam (the
            # amortization tests patch it to count generator invocations).
            return generate_trace(workload.profile, n_insts)
        # Any other regenerable registry form (phased, mutated base).
        return workload.materialize(n_insts)

    def _remember_decoded(self, key: str, trace: Trace | ColumnTrace) -> None:
        self._decoded[key] = trace
        while len(self._decoded) > self.decoded_capacity:
            self._decoded.pop(next(iter(self._decoded)))
