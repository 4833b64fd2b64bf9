"""Remote sweep execution over the trace wire format.

PR 3/4 made traces content-addressed and codec-encoded, so a worker needs
nothing but bytes to run a cell; this module is the network half of that
bargain.  It distributes sweep cells to **worker agents** on other hosts
over a small length-prefixed TCP protocol that reuses the pieces the
local backends already trust:

- traces travel as :mod:`repro.isa.codec` v1 bytes (the exact buffer
  the batch runner ships to its local workers), addressed by the same
  content key (:func:`~repro.experiments.traces.workload_key`);
- machine configurations travel as their ``to_dict`` form and rebuild via
  :meth:`~repro.pipeline.config.MachineConfig.from_dict`;
- results travel as ``SimStats.to_dict`` JSON plus the stats fingerprint,
  which the client re-derives from the decoded payload -- any wire or
  schema skew fails loudly instead of corrupting a figure.

Nothing pickled ever crosses the wire (see the trust model in the
README): every frame is either UTF-8 JSON or raw codec bytes, both fully
validated before use, so a worker agent never executes attacker-supplied
code paths beyond "simulate this machine on this trace".

Wire protocol (version 1)
-------------------------

Frames are ``kind (1 byte) + big-endian u32 length + payload``.  Kind
``J`` is a JSON object; kind ``T`` is a raw encoded trace.  Per
connection::

    client                                worker
    ------                                ------
    J {type: hello, protocol: 1}    ->
                                    <-    J {type: hello, protocol: 1, slots}
    J {type: job, job_id, fingerprint,
       config, n_insts, warmup,
       validate, trace_key,
       trace_sha256?, ...}          ->
                                    <-    J {type: need_trace, key}   (miss only)
    T <codec bytes>                 ->
                                    <-    J {type: result, job_id,
                                             fingerprint, stats, seconds}
                                          or J {type: error, job_id, message}

The ``need_trace`` round trip is the **host-level trace cache**: the job
carries only the content key, and the worker answers from (1) its decoded
in-memory memo, (2) its on-disk :class:`~repro.workloads.trace_cache.
TraceCache` when configured, and only then (3) the network.  A fleet
whose agents share a cache directory downloads each trace once per host,
not once per sweep.  When the client already holds the encoded bytes
(memoized this sweep, or in its own trace cache) the job additionally
pins ``trace_sha256``; a host cache entry that disagrees is refetched
instead of trusted, so a stale or poisoned host cache costs one transfer,
never a wrong figure.  A job without a digest trusts the host cache --
that residual is the perimeter trust model documented in the README.

Scheduling and fault tolerance
------------------------------

:class:`RemoteBackend` is a static-fleet client of the one scheduling
core also under the campaign daemon: the transport-free
:class:`~repro.experiments.scheduler.Scheduler` plus the asyncio
:class:`JobDispatcher` below.  A lost, misbehaving or straggling worker
costs a re-dispatch, never the sweep; a deterministic cell failure
raises :class:`~repro.experiments.backends.CellExecutionError`; results
are bit-identical to :class:`~repro.experiments.backends.SerialBackend`
(``svw-repro bench-sweep --remote-workers`` and the
``remote-equivalence`` CI job enforce this).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.experiments.backends import CellExecutionError, ProgressFn, paused_gc
from repro.experiments.faults import CRASH_EXIT_CODE, FaultPlan
from repro.experiments.scheduler import Cell, Scheduler, Submission, check_limits
from repro.experiments.spec import RunRequest
from repro.experiments.store import ResultStore
from repro.experiments.traces import TraceProvider, request_key
from repro.isa.codec import TraceCodecError, decode_trace
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import Trace
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

if TYPE_CHECKING:
    from repro.experiments.batch import CostModel

PROTOCOL_VERSION = 1

FRAME_JSON = b"J"
FRAME_TRACE = b"T"
#: Zlib-compressed trace frame -- sent only after BOTH sides advertised
#: ``compress: ["zlib"]`` in the hello exchange, so protocol-v1 peers that
#: predate compression interoperate untouched (they never negotiate it and
#: therefore never see a ``Z`` frame).
FRAME_ZTRACE = b"Z"

#: The compression codecs this build can negotiate, best-first.
SUPPORTED_COMPRESSION = ("zlib",)

#: Upper bound on a single frame (codec traces are ~1.5 MB at figure
#: budgets; 1 GiB rejects garbage lengths without constraining real use).
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">cI")

#: Most job connections the dispatcher opens to one agent.
MAX_SLOTS = 64

#: How many times a worker re-requests a trace whose bytes arrive damaged
#: (CRC/digest/zlib failure) before giving up on the connection.
TRACE_FETCH_ATTEMPTS = 3


class RemoteProtocolError(RuntimeError):
    """The peer spoke, but not protocol v1 -- fatal, never retried."""


class CorruptTraceError(RemoteProtocolError):
    """Trace bytes arrived damaged (zlib, CRC, or digest mismatch).

    Unlike its parent this is *retryable in place*: the frame sequence is
    intact -- only the payload is bad -- so the receiver may re-request
    the trace on the same connection instead of tearing it down.
    """


# --------------------------------------------------------------------- framing


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` (peer gone)."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:], n - got)
        if read == 0:
            raise ConnectionError("connection closed mid-frame")
        got += read
    return bytes(buf)


def _frame(kind: bytes, payload: bytes) -> bytes:
    """One wire frame: kind byte, u32 length, payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(f"frame of {len(payload)} bytes exceeds protocol bound")
    return _HEADER.pack(kind, len(payload)) + payload


def _check_header(header: bytes) -> tuple[bytes, int]:
    kind, length = _HEADER.unpack(header)
    if kind not in (FRAME_JSON, FRAME_TRACE, FRAME_ZTRACE):
        raise RemoteProtocolError(f"unknown frame kind {kind!r}")
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(f"frame length {length} exceeds protocol bound")
    return kind, length


def _json_frame(message: dict) -> bytes:
    return _frame(FRAME_JSON, json.dumps(message, sort_keys=True).encode("utf-8"))


def _parse_json(kind: bytes, payload: bytes) -> dict:
    """A received frame that must be JSON with a ``type`` field."""
    if kind != FRAME_JSON:
        raise RemoteProtocolError(f"expected a JSON frame, got kind {kind!r}")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"undecodable JSON frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise RemoteProtocolError("JSON frame is not a typed object")
    return message


def send_frame(sock: socket.socket, kind: bytes, payload: bytes) -> None:
    sock.sendall(_frame(kind, payload))


def recv_frame(sock: socket.socket) -> tuple[bytes, bytes]:
    """The next ``(kind, payload)`` frame; validates kind and length."""
    kind, length = _check_header(_recv_exact(sock, _HEADER.size))
    return kind, _recv_exact(sock, length)


def send_json(sock: socket.socket, message: dict) -> None:
    sock.sendall(_json_frame(message))


def recv_json(sock: socket.socket) -> dict:
    """The next frame, which must be JSON with a ``type`` field."""
    return _parse_json(*recv_frame(sock))


# The same frames over asyncio streams (the job dispatcher and the
# campaign daemon's registry and client connections).


async def recv_json_async(reader) -> dict:
    """The next frame on an asyncio stream, which must be typed JSON."""
    import asyncio

    try:
        kind, length = _check_header(await reader.readexactly(_HEADER.size))
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc
    return _parse_json(kind, payload)


async def send_json_async(writer, message: dict) -> None:
    writer.write(_json_frame(message))
    await writer.drain()


def _handshake(sock: socket.socket, reply: dict | None = None) -> dict:
    """Validate the peer's hello; optionally answer with ``reply``."""
    hello = recv_json(sock)
    if hello.get("type") != "hello" or hello.get("protocol") != PROTOCOL_VERSION:
        raise RemoteProtocolError(
            f"peer speaks {hello.get('type')!r}/{hello.get('protocol')!r}, "
            f"need hello/{PROTOCOL_VERSION}"
        )
    if reply is not None:
        send_json(sock, reply)
    return hello


def negotiated_zlib(peer_hello: dict) -> bool:
    """Whether the peer's hello advertised zlib trace compression.

    A peer that predates negotiation simply has no ``compress`` field, so
    the answer is False and both directions stay on raw ``T`` frames --
    old agents keep working against new clients and vice versa.
    """
    advertised = peer_hello.get("compress")
    return isinstance(advertised, list) and "zlib" in advertised


def _trace_frame(data: bytes, compress: bool) -> bytes:
    """Encoded trace bytes as a ``Z`` frame when both hellos advertised
    zlib, else as a raw ``T`` frame."""
    if compress:
        return _frame(FRAME_ZTRACE, zlib.compress(data, level=1))
    return _frame(FRAME_TRACE, data)


def decode_trace_frame(kind: bytes, payload: bytes, context: str) -> bytes:
    """The raw encoded-trace bytes of a ``T`` or ``Z`` frame."""
    if kind == FRAME_TRACE:
        return payload
    if kind == FRAME_ZTRACE:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            # Damaged payload, intact framing: retryable (CorruptTraceError).
            raise CorruptTraceError(f"undecompressable trace for {context}: {exc}")
    raise RemoteProtocolError(f"expected trace bytes for {context}, got kind {kind!r}")


def parse_worker(address: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``.

    Malformed addresses raise :class:`ValueError` with a message that says
    exactly what is wrong (these surface verbatim through the CLI, where a
    raw traceback would bury the typo).  Surrounding whitespace is
    tolerated -- comma-separated lists arrive with it.
    """
    cleaned = address.strip()
    if not cleaned:
        raise ValueError(
            "worker address is empty (expected host:port, e.g. node1:7501)"
        )
    host, sep, port = cleaned.rpartition(":")
    if not sep or not host.strip():
        raise ValueError(
            f"worker address {address.strip()!r} is missing a "
            f"{'host' if sep else 'port'} (expected host:port, e.g. node1:7501)"
        )
    host, port = host.strip(), port.strip()
    if not port:
        raise ValueError(
            f"worker address {address.strip()!r} is missing a port "
            "(expected host:port, e.g. node1:7501)"
        )
    if not port.isdigit():
        raise ValueError(
            f"worker address {address.strip()!r} has a non-numeric port "
            f"{port!r} (expected host:port, e.g. node1:7501)"
        )
    value = int(port)
    if not 0 < value < 65536:
        raise ValueError(
            f"worker address {address.strip()!r} has an out-of-range port "
            f"{value} (valid TCP ports are 1-65535)"
        )
    return host, value


# ---------------------------------------------------------------- worker agent


class WorkerAgent:
    """One host's sweep-execution agent (``svw-repro worker``).

    A small threaded TCP server: each client connection is served by its
    own thread, while ``slots`` bounds how many simulations run
    concurrently (default 1 -- simulation is pure Python, so extra slots
    only help when a host runs multiple agents or oversubscription is
    wanted for latency hiding).

    Trace handling is host-level and pickle-free: jobs name traces by
    content key only; misses are fetched over the wire as codec bytes,
    persisted to ``trace_cache`` when one is configured (shared between
    every agent on the host), and decoded into a bounded in-memory memo of
    column-native traces shared by all connections.

    ``result_store`` turns on **worker-side result memoization**: jobs
    already carry the cell's :meth:`~repro.experiments.spec.RunRequest.
    fingerprint` (the content address the client's own cache uses), so a
    repeat cell is answered with the memoized result frame instead of
    re-simulating -- the client still re-derives and verifies the stats
    fingerprint, exactly as for a fresh result.

    ``faults`` injects a deterministic :class:`~repro.experiments.faults.
    FaultPlan` for chaos testing: the agent consults it at the top of
    every served job (site ``worker.job``) and enacts what it decides --
    ``drop`` severs every connection like a killed host, ``crash`` exits
    the process without cleanup (subprocess fleets only), ``delay``
    stalls the job to manufacture a straggler.

    :meth:`register_with` joins a campaign daemon's worker registry (see
    :mod:`repro.experiments.campaign`): the agent dials the daemon,
    advertises its port/slots/capabilities, heartbeats, and reconnects
    through daemon restarts; :meth:`drain` asks the daemon to stop
    assigning work and returns once in-flight cells have finished.
    """

    _DECODED_SLOTS = 2

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: int = 1,
        trace_cache: TraceCache | None = None,
        progress: Callable[[str], None] | None = None,
        result_store: "ResultStore | None" = None,
        compress: bool = True,
        advertise_host: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.faults = faults
        self.slots = slots
        self.trace_cache = trace_cache
        self.progress = progress
        self.result_store = result_store
        self.compress = compress
        self.advertise_host = advertise_host
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._lock = threading.Lock()
        self._sim_gate = threading.Semaphore(slots)
        self._closed = threading.Event()
        #: key -> (decoded trace, SHA-256 of its encoded bytes when known).
        self._decoded: dict[str, tuple[Trace | ColumnTrace, str | None]] = {}
        self._connections: set[socket.socket] = set()
        self._accept_thread: threading.Thread | None = None
        self._registry_thread: threading.Thread | None = None
        self._draining = threading.Event()
        self._drained = threading.Event()
        #: Completed simulations (all connections).
        self.jobs_done = 0
        #: Traces fetched over the wire (host-cache misses).
        self.trace_misses = 0
        #: Connections accepted over the agent's lifetime.
        self.connections_served = 0
        #: Jobs answered from the local result store without simulating.
        self.memo_hits = 0
        #: Traces that arrived as negotiated zlib (``Z``) frames.
        self.compressed_traces = 0
        #: Wire trace transfers rejected as damaged (CRC/digest/zlib) and
        #: re-requested.
        self.trace_rejections = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerAgent":
        """Serve in a background thread (the in-process/test entry point)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name=f"svw-worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close` (blocking)."""
        while not self._closed.is_set():
            try:
                conn, _ = self._server.accept()
            except OSError:
                break  # close() closed the listening socket
            with self._lock:
                if self._closed.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
                self.connections_served += 1
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def close(self) -> None:
        """Stop accepting, sever every live connection (idempotent)."""
        self._closed.set()
        self._drained.set()  # unblock any drain() waiter
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            connections, self._connections = self._connections, set()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    # -- campaign registry ----------------------------------------------------

    def register_with(
        self,
        daemon_address: str,
        heartbeat_interval: float = 2.0,
        retry_interval: float = 1.0,
        retry_max: float = 30.0,
    ) -> "WorkerAgent":
        """Join a campaign daemon's worker registry (background thread).

        The agent keeps serving direct :class:`RemoteBackend` clients on
        its own port; registration *additionally* advertises that port
        (plus slots and capabilities) to the daemon, which dials back with
        the ordinary job protocol.  The registry connection carries only
        tiny JSON frames: ``register`` -> ``registered``, then a
        ``heartbeat`` every ``heartbeat_interval`` seconds.

        A lost or refusing daemon is retried forever with **jittered
        exponential backoff**: the first retry waits ``retry_interval``
        seconds, doubling up to ``retry_max``, each wait jittered to half
        its nominal value so a restarted daemon is not stampeded by its
        whole fleet at once.  Successful registration resets the backoff.
        State transitions (down, refused, registered) are reported through
        ``progress`` -- a fleet riding out a daemon restart is visible in
        the logs, not silent.
        """
        host, port = parse_worker(daemon_address)
        self._registry_thread = threading.Thread(
            target=self._registry_loop,
            args=(host, port, heartbeat_interval, retry_interval, retry_max),
            name=f"svw-worker-registry-{self.port}",
            daemon=True,
        )
        self._registry_thread.start()
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Ask the daemon to stop assigning work; wait for the all-clear.

        Returns True once the daemon confirmed every in-flight cell
        finished (or immediately when the agent was never registered).
        The agent keeps serving direct clients -- drain is a registry
        state, not a shutdown.
        """
        if self._registry_thread is None:
            return True
        self._draining.set()
        return self._drained.wait(timeout)

    def _registry_loop(
        self,
        host: str,
        port: int,
        heartbeat_interval: float,
        retry_interval: float,
        retry_max: float,
    ) -> None:
        register = {
            "type": "register",
            "protocol": PROTOCOL_VERSION,
            "port": self.port,
            "slots": self.slots,
            "compress": list(SUPPORTED_COMPRESSION) if self.compress else [],
        }
        if self.advertise_host is not None:
            register["host"] = self.advertise_host
        backoff = retry_interval
        jitter = random.Random()  # de-syncs the fleet; needs no determinism
        down_announced = False

        def back_off() -> None:
            nonlocal backoff
            self._closed.wait(jitter.uniform(backoff / 2, backoff))
            backoff = min(backoff * 2, retry_max)

        def announce(message: str) -> None:
            if self.progress is not None:
                self.progress(f"worker {self.address}: {message}")

        while not self._closed.is_set():
            try:
                conn = socket.create_connection((host, port), timeout=10.0)
            except OSError as exc:
                # Daemon down (or not yet up): announce the transition once,
                # then retry with jittered exponential backoff forever.
                if not down_announced:
                    announce(
                        f"daemon {host}:{port} unreachable ({exc}); "
                        f"retrying with backoff up to {retry_max:.0f}s"
                    )
                    down_announced = True
                back_off()
                continue
            try:
                send_json(conn, register)
                conn.settimeout(10.0)
                ack = recv_json(conn)
                if ack.get("type") == "error":
                    # An explicit refusal (e.g. quarantine) is retryable:
                    # keep backing off until the daemon readmits us.
                    announce(
                        f"registration refused by {host}:{port}: "
                        f"{ack.get('message', 'no reason given')}"
                    )
                    down_announced = True
                    conn.close()
                    back_off()
                    continue
                if ack.get("type") != "registered":
                    raise RemoteProtocolError(
                        f"daemon answered {ack.get('type')!r}, not registered"
                    )
                backoff = retry_interval  # healthy again: reset the backoff
                down_announced = False
                announce(f"registered with {host}:{port}")
                drain_sent = False
                conn.settimeout(heartbeat_interval)
                while not self._closed.is_set():
                    if self._draining.is_set() and not drain_sent:
                        send_json(conn, {"type": "drain"})
                        drain_sent = True
                    try:
                        message = recv_json(conn)
                    except socket.timeout:
                        send_json(conn, {"type": "heartbeat"})
                        continue
                    if message.get("type") == "drained":
                        self._drained.set()
                        return
            except (ConnectionError, OSError, RemoteProtocolError) as exc:
                if not self._closed.is_set():
                    announce(f"lost daemon {host}:{port} ({exc}); reconnecting")
                    down_announced = True
            finally:
                conn.close()
            back_off()

    def __enter__(self) -> "WorkerAgent":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- per-connection protocol ---------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reply = {"type": "hello", "protocol": PROTOCOL_VERSION, "slots": self.slots}
            if self.compress:
                reply["compress"] = list(SUPPORTED_COMPRESSION)
            _handshake(conn, reply=reply)
            while not self._closed.is_set():
                message = recv_json(conn)
                if message.get("type") != "job":
                    raise RemoteProtocolError(
                        f"expected a job frame, got {message.get('type')!r}"
                    )
                self._serve_job(conn, message)
        except (ConnectionError, OSError, RemoteProtocolError):
            pass  # client went away or spoke garbage; this connection is done
        finally:
            with self._lock:
                self._connections.discard(conn)
            conn.close()

    def _serve_job(self, conn: socket.socket, job: dict) -> None:
        if self.faults is not None:
            with self._lock:
                jobs_done = self.jobs_done
            event = self.faults.job_fault("worker.job", jobs_done)
            if event is not None:
                if event.kind == "crash":
                    # Die like kill -9: no goodbye frame, no cleanup.  Only
                    # meaningful for subprocess fleets -- an in-process test
                    # agent would take its test down with it.
                    os._exit(CRASH_EXIT_CODE)
                if event.kind == "drop":
                    # Chaos mode: die like a killed host -- no goodbye frame.
                    self.close()
                    raise ConnectionError("chaos drop")
                if event.kind == "delay":
                    # Straggle: stall the whole job past any deadline the
                    # dispatcher set.  close() interrupts the nap.
                    self._closed.wait(event.value)
        job_id = job.get("job_id")
        describe = job.get("describe", f"job {job_id}")
        if self.progress is not None:
            self.progress(f"worker {self.address}: {describe}")
        memoized = self._memoized_stats(job)
        if memoized is not None:
            with self._lock:
                self.memo_hits += 1
            send_json(
                conn,
                {
                    "type": "result",
                    "job_id": job_id,
                    "fingerprint": memoized.fingerprint(),
                    "stats": memoized.to_dict(),
                    "seconds": 0.0,  # <= 0 keeps memo hits out of cost models
                    "memoized": True,
                },
            )
            return
        try:
            config = MachineConfig.from_dict(job["config"])
            trace = self._trace_for(
                str(job["trace_key"]), job.get("trace_sha256"), conn
            )
            with self._sim_gate:
                started = time.perf_counter()
                stats = paused_gc(
                    lambda: Processor(
                        config,
                        trace,
                        validate=bool(job["validate"]),
                        warmup=int(job["warmup"]),
                    ).run()
                )
                seconds = time.perf_counter() - started
        except (ConnectionError, OSError, RemoteProtocolError):
            raise  # transport trouble is connection-fatal, not a cell error
        except Exception as exc:  # deterministic cell failure -> error frame
            send_json(
                conn,
                {
                    "type": "error",
                    "job_id": job_id,
                    "message": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        with self._lock:
            self.jobs_done += 1
        self._memoize_stats(job, stats)
        send_json(
            conn,
            {
                "type": "result",
                "job_id": job_id,
                "fingerprint": stats.fingerprint(),
                "stats": stats.to_dict(),
                "seconds": seconds,
            },
        )

    def _memoized_stats(self, job: dict) -> SimStats | None:
        """The locally cached result for a job's cell fingerprint, if any.

        The fingerprint the client sends IS the content address its own
        result cache uses, so the worker-side store speaks the same
        universe; a malformed fingerprint (wrong length, non-hex) is simply
        not memoizable -- it can never name a path outside the store.
        """
        if self.result_store is None:
            return None
        fingerprint = job.get("fingerprint")
        if not isinstance(fingerprint, str):
            return None
        try:
            return self.result_store.load_stats(fingerprint)
        except ValueError:
            return None

    def _memoize_stats(self, job: dict, stats: SimStats) -> None:
        if self.result_store is None:
            return
        fingerprint = job.get("fingerprint")
        if not isinstance(fingerprint, str):
            return
        provenance = {
            key: job[key]
            for key in ("experiment", "workload", "config_label", "n_insts", "warmup", "validate")
            if key in job
        }
        try:
            self.result_store.save_stats(fingerprint, stats, provenance=provenance)
        except (ValueError, OSError):
            pass  # memoization is best-effort; the result frame still ships

    def _trace_for(
        self, key: str, want_digest: str | None, conn: socket.socket
    ) -> Trace | ColumnTrace:
        """The decoded trace for ``key``: memo, then disk, then the wire.

        ``want_digest`` is the client's SHA-256 of the encoded bytes, when
        it knows them (see ``TraceProvider.has_encoded``): a memo or disk
        entry with a different digest is stale or poisoned and is refetched
        instead of trusted.  Wire bytes that arrive damaged -- contradicting
        their claimed digest, undecompressable, or failing the codec CRC --
        are **re-requested** on the same connection (the framing survived;
        only the payload is bad) up to :data:`TRACE_FETCH_ATTEMPTS` times
        before the connection is declared lost, so transient corruption
        costs a transfer, never the session.  A job without a digest (cold
        client, warm host) trusts the host cache -- the documented
        perimeter trust model.
        """
        with self._lock:
            entry = self._decoded.get(key)
        if entry is not None and (want_digest is None or entry[1] == want_digest):
            return entry[0]
        trace = None
        digest = None
        data: bytes | None = None
        if self.trace_cache is not None:
            data = self.trace_cache.load(key)
            if data is not None:
                digest = hashlib.sha256(data).hexdigest()
                if want_digest is not None and digest != want_digest:
                    data = None  # stale/poisoned disk entry: refetch
        if data is not None:
            try:
                trace = paused_gc(lambda: decode_trace(data))
            except TraceCodecError:
                trace = None  # torn cache entry: fall through to the wire
        if trace is None:
            with self._lock:
                self.trace_misses += 1
            last_error: Exception | None = None
            for _ in range(TRACE_FETCH_ATTEMPTS):
                send_json(conn, {"type": "need_trace", "key": key})
                kind, payload = recv_frame(conn)
                if kind == FRAME_ZTRACE:
                    with self._lock:
                        self.compressed_traces += 1
                try:
                    payload = decode_trace_frame(kind, payload, key)
                    digest = hashlib.sha256(payload).hexdigest()
                    if want_digest is not None and digest != want_digest:
                        raise CorruptTraceError(
                            f"trace bytes for {key!r} do not match their "
                            "claimed digest"
                        )
                    # Decode before persisting: a client shipping undecodable
                    # bytes must fail its own cell, not poison the host cache.
                    trace = paused_gc(lambda: decode_trace(payload))
                except (CorruptTraceError, TraceCodecError) as exc:
                    # Damaged in transit: reject and re-request in place.
                    with self._lock:
                        self.trace_rejections += 1
                    last_error = exc
                    if self.progress is not None:
                        self.progress(
                            f"worker {self.address}: rejected trace for "
                            f"{key!r} ({exc}); re-requesting"
                        )
                    continue
                break
            else:
                # Persistent corruption is indistinguishable from a broken
                # peer: declare the connection lost (the dispatcher
                # re-dispatches under its own attempt bound).
                raise RemoteProtocolError(
                    f"trace for {key!r} damaged in {TRACE_FETCH_ATTEMPTS} "
                    f"consecutive transfers (last: {last_error})"
                )
            if self.trace_cache is not None:
                self.trace_cache.save(key, payload)
        with self._lock:
            self._decoded[key] = (trace, digest)
            while len(self._decoded) > self._DECODED_SLOTS:
                self._decoded.pop(next(iter(self._decoded)))
        return trace


def build_job_message(
    request: RunRequest, job_id: object, key: str, digest: str | None
) -> dict:
    """The wire ``job`` frame for one cell."""
    job = {
        "type": "job",
        "job_id": job_id,
        "fingerprint": request.fingerprint(),
        "describe": request.describe(),
        "experiment": request.experiment,
        "workload": request.workload.name,
        "config_label": request.config_label,
        "config": request.config.to_dict(),
        "n_insts": request.n_insts,
        "warmup": request.warmup,
        "validate": request.validate,
        "trace_key": key,
    }
    if digest is not None:
        job["trace_sha256"] = digest
    return job


# -------------------------------------------------------------- job dispatcher


@dataclass
class WorkerLink:
    """One worker agent as the dispatcher drives it.

    The dispatcher dials ``slots`` job connections to ``host:port``;
    ``slots=0`` (a static-fleet member) sizes the link to the slots the
    agent advertises in its hello.  ``dead`` and ``draining`` stop its
    slots taking new cells; ``error`` says why it died.
    """

    id: str
    host: str
    port: int
    slots: int = 1
    draining: bool = False
    dead: bool = False
    in_flight: int = 0
    jobs_done: int = 0
    error: str | None = None
    tasks: list = field(default_factory=list)
    writers: list = field(default_factory=list)

    def abort(self) -> None:
        """Sever every job connection (busy slots unwind as worker loss)."""
        for writer in self.writers:
            writer.transport.abort()


class JobDispatcher:
    """Runs a :class:`~repro.experiments.scheduler.Scheduler`'s cells on
    worker agents, one asyncio task per job connection ("slot"), for
    both :class:`RemoteBackend` and the campaign daemon.

    A slot dials its agent, says hello (advertising zlib), then loops:
    take the next cell, run the job exchange, settle the outcome.  A
    result is re-verified against its stats fingerprint and feeds the
    cost model.  An error frame, a bad result, or any other client-side
    error running the cell is deterministic, so the cell fails.  A
    dropped connection, a protocol violation or a job past its deadline
    is worker loss: the worker is retired and struck, and the cell
    re-queued.  ``need_trace`` is answered from ``provider``, off the
    event loop; once a slot ships a frame (the fleet is cold) it
    prefetches the next pending workload's frame, one at a time per
    slot.  ``faults`` may mutate outgoing trace bytes at ``trace_site``;
    ``settled(cell, affected, ended)`` runs after every outcome with the
    submissions that got a result and those it ended; ``note`` gets
    progress lines.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        provider: TraceProvider,
        connect_timeout: float = 10.0,
        faults: FaultPlan | None = None,
        trace_site: str = "client.trace",
        note: Callable[[str], None] | None = None,
        settled: Callable[[Cell, list[Submission], list[Submission]], None] = (
            lambda cell, affected, ended: None
        ),
    ) -> None:
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        self.scheduler = scheduler
        self.provider = provider
        self.connect_timeout = connect_timeout
        self.faults = faults
        self.trace_site = trace_site
        self.note = note or (lambda message: None)
        self.settled = settled
        #: Guards the scheduler and every worker's slot state.
        self.work = asyncio.Condition()
        self.closing = False
        #: Trace generation, hashing and framing run off the event loop on
        #: one thread.  That keeps the memoizing provider single-writer (each
        #: trace is generated at most once) and the trace buffers in one
        #: malloc arena (a thread pool measured ~10 MB more peak RSS on the
        #: ``remote`` benchmark).
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svw-trace")
        #: trace key -> SHA-256 of its encoded bytes, once known.
        self._digests: dict[str, str] = {}
        #: Trace keys whose encoded bytes a prefetch produced.
        self._prefetched: set[str] = set()
        #: Live slot and prefetch tasks.
        self._tasks: set = set()
        #: Results received from workers.
        self.cells_simulated = 0
        #: Jobs struck by the per-job deadline (cell re-dispatched).
        self.stragglers = 0
        #: ``need_trace`` requests answered from a prefetched frame.
        self.prefetch_hits = 0

    def _track(self, coroutine):
        import asyncio

        task = asyncio.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def spawn(self, worker: WorkerLink) -> None:
        """Start one more slot on ``worker``."""
        worker.tasks.append(self._track(self._slot(worker)))

    async def close(self) -> None:
        """Stop handing out cells and wait for every slot and prefetch:
        idle slots exit at once, busy ones after their current cell."""
        import asyncio

        async with self.work:
            self.closing = True
            self.work.notify_all()
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=False)

    def _has_encoded(self, request: RunRequest) -> bool:
        return self.provider.has_encoded(request.workload, request.n_insts)

    # -- slots ---------------------------------------------------------------

    async def _slot(self, worker: WorkerLink) -> None:
        import asyncio

        writer = None
        cell: Cell | None = None
        try:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(worker.host, worker.port),
                    self.connect_timeout,
                )
                worker.writers.append(writer)
                await send_json_async(
                    writer,
                    {
                        "type": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "compress": list(SUPPORTED_COMPRESSION),
                    },
                )
                peer = await asyncio.wait_for(
                    recv_json_async(reader), self.connect_timeout
                )
                if peer.get("type") != "hello" or peer.get("protocol") != PROTOCOL_VERSION:
                    raise RemoteProtocolError("worker hello mismatch")
            except (OSError, RemoteProtocolError, asyncio.TimeoutError) as exc:
                # Unreachable from here (a wrong address, NAT, or a worker
                # that died between registering and the dial-back).
                async with self.work:
                    worker.dead = True
                    worker.error = f"connect failed: {exc}"
                    pause = self.scheduler.strike(worker.id)
                    self.work.notify_all()
                self._quarantined(worker, pause, "dial-back failed")
                return
            if worker.slots == 0 and not self.closing:
                # Static fleet: one slot per connection the agent advertises.
                advertised = peer.get("slots")
                worker.slots = (
                    min(advertised, MAX_SLOTS)
                    if isinstance(advertised, int) and advertised > 0
                    else 1
                )
                for _ in range(worker.slots - 1):
                    self.spawn(worker)
            compress = negotiated_zlib(peer)
            prefetch = None

            def start_prefetch(current_key: str) -> None:
                nonlocal prefetch
                if prefetch is not None and not prefetch.done():
                    return
                request = self.scheduler.prefetch_candidate(
                    current_key, self._has_encoded
                )
                if request is not None:
                    prefetch = self._track(self._prefetch(request))

            while True:
                cell = await self._next_cell(worker)
                if cell is None:
                    return
                try:
                    stats, seconds = await self._run_job(
                        reader, writer, cell, compress, start_prefetch
                    )
                except (OSError, RemoteProtocolError) as exc:
                    await self._lost(worker, cell, exc)
                    return
                except Exception as exc:
                    message = (
                        str(exc)
                        if isinstance(exc, CellExecutionError)
                        else f"{type(exc).__name__}: {exc}"
                    )
                    await self._failed(worker, cell, message)
                else:
                    await self._done(worker, cell, stats, seconds)
                cell = None
        except asyncio.CancelledError:
            if cell is not None:
                await self._lost(worker, cell, ConnectionError("dispatcher shutdown"))
            raise
        finally:
            if writer is not None:
                writer.close()

    async def _next_cell(self, worker: WorkerLink) -> Cell | None:
        async with self.work:
            while not (self.closing or worker.dead or worker.draining):
                cell = self.scheduler.next_cell()
                if cell is not None:
                    worker.in_flight += 1
                    return cell
                await self.work.wait()
            return None

    async def _run_job(
        self,
        reader,
        writer,
        cell: Cell,
        compress: bool,
        on_trace_shipped: Callable[[str], None],
    ) -> tuple[SimStats, float]:
        import asyncio

        request = cell.request
        key = cell.trace_key
        # Pin the trace's content whenever this dispatcher already knows it
        # (bytes memoized or trace-cached locally): a worker whose cached
        # entry disagrees then refetches instead of simulating the wrong
        # trace.  Never *generate* just to name a digest -- that would
        # forfeit the warm-worker path where the client ships nothing.
        if key not in self._digests and self._has_encoded(request):
            await self._encoded(request)
        # The execution deadline covers the whole exchange, trace transfer
        # included: a worker quiet past it is a straggler, and the
        # TimeoutError -- an OSError -- takes the worker-lost path, which
        # re-queues the cell for another worker (hedged retry) and strikes
        # this one.
        deadline = self.scheduler.deadline(request)
        loop = asyncio.get_running_loop()
        budget = None if deadline is None else loop.time() + deadline

        async def receive() -> dict:
            if budget is None:
                return await recv_json_async(reader)
            try:
                return await asyncio.wait_for(
                    recv_json_async(reader), max(0.0, budget - loop.time())
                )
            except asyncio.TimeoutError:
                self.stragglers += 1
                raise TimeoutError(f"job deadline {deadline:.1f}s exceeded") from None

        await send_json_async(
            writer,
            build_job_message(request, cell.fingerprint, key, self._digests.get(key)),
        )
        while True:
            message = await receive()
            kind = message.get("type")
            if kind == "need_trace":
                data = await self._encoded(request)
                if key in self._prefetched:
                    self.prefetch_hits += 1
                if self.faults is not None:
                    mutated = self.faults.mutate_trace(self.trace_site, data)
                    if mutated is not None:
                        data = mutated
                # Framing (zlib) runs off the loop so other slots' results
                # are not held up behind it.
                writer.write(
                    await loop.run_in_executor(self._executor, _trace_frame, data, compress)
                )
                await writer.drain()
                on_trace_shipped(key)
            elif kind == "result":
                try:
                    stats = SimStats.from_dict(message["stats"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CellExecutionError(
                        f"undecodable result payload: {exc}"
                    ) from exc
                if stats.fingerprint() != message.get("fingerprint"):
                    raise CellExecutionError(
                        "result fingerprint does not match its payload "
                        "(wire or schema skew)"
                    )
                return stats, float(message.get("seconds", 0.0))
            elif kind == "error":
                raise CellExecutionError(str(message.get("message")))
            else:
                raise RemoteProtocolError(f"unexpected frame type {kind!r}")

    # -- traces --------------------------------------------------------------

    def _encode(self, request: RunRequest) -> bytes:
        data = self.provider.encoded(request.workload, request.n_insts)
        key = request_key(request)
        if key not in self._digests:
            self._digests[key] = hashlib.sha256(data).hexdigest()
        return data

    async def _encoded(self, request: RunRequest) -> bytes:
        """Encoded trace bytes for a cell, generated and hashed at most
        once per key."""
        import asyncio

        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self._encode, request
        )

    async def _prefetch(self, request: RunRequest) -> None:
        """Build one trace frame ahead of demand.  A failure only releases
        the claim: generation errors surface deterministically when the
        cell itself dispatches, never from a prefetch."""
        key = request_key(request)
        try:
            await self._encoded(request)
        except Exception:
            self.scheduler.prefetch_claimed.discard(key)
            return
        self._prefetched.add(key)

    # -- outcomes ------------------------------------------------------------

    async def _done(
        self, worker: WorkerLink, cell: Cell, stats: SimStats, seconds: float
    ) -> None:
        self.scheduler.cost_model.observe(cell.request.config, cell.request.n_insts, seconds)
        async with self.work:
            worker.in_flight -= 1
            worker.jobs_done += 1
            self.cells_simulated += 1
            affected, finished = self.scheduler.complete(cell, stats, worker.id)
            self.work.notify_all()
        self.note(f"{cell.request.describe()} [done @{worker.id}]")
        self.settled(cell, affected, finished)

    async def _failed(self, worker: WorkerLink, cell: Cell, message: str) -> None:
        async with self.work:
            worker.in_flight -= 1
            failed = self.scheduler.fail(cell, message)
            self.work.notify_all()
        self.settled(cell, [], failed)

    async def _lost(self, worker: WorkerLink, cell: Cell, exc: Exception) -> None:
        async with self.work:
            worker.in_flight -= 1
            worker.dead = True
            worker.error = f"lost mid-cell: {exc}"
            failed, pause = self.scheduler.lost(cell, worker.id, str(exc))
            self.work.notify_all()
        self.note(f"worker {worker.id} lost ({exc})")
        self._quarantined(worker, pause, exc)
        self.settled(cell, [], failed)

    def _quarantined(self, worker: WorkerLink, pause: float | None, reason: object) -> None:
        if pause is not None:
            self.note(
                f"worker {worker.id} quarantined for {pause:.1f}s "
                f"(repeated failures, last: {reason})"
            )


# --------------------------------------------------------------- client backend


class RemoteBackend:
    """Fan sweep cells out to :class:`WorkerAgent` hosts over TCP.

    ``workers`` is a sequence of ``"host:port"`` addresses.  Each
    :meth:`run` is one submission to a fresh
    :class:`~repro.experiments.scheduler.Scheduler`, driven by a
    :class:`JobDispatcher` with one slot per connection each agent
    advertises.  Results are positionally aligned with the request list
    and bit-identical to :class:`~repro.experiments.backends.
    SerialBackend`.  The first failed cell raises
    :class:`~repro.experiments.backends.CellExecutionError`, as does
    losing every slot with cells unfinished; ``max_attempts`` bounds how
    often one cell is dispatched.

    ``job_deadline`` bounds one job exchange: a number of seconds,
    ``None`` for no deadline, or ``"auto"`` (see
    :func:`~repro.experiments.scheduler.derive_deadline`).  ``faults``
    corrupts or truncates outgoing trace bytes at site ``client.trace``.
    After each run ``last_provider`` is the sweep's trace provider, and
    ``stragglers`` / ``prefetch_hits`` have accumulated the dispatcher's
    counters.
    """

    def __init__(
        self,
        workers: Sequence[str],
        trace_cache: TraceCache | None = None,
        cost_model: "CostModel | None" = None,
        max_attempts: int = 3,
        connect_timeout: float = 10.0,
        job_deadline: float | str | None = "auto",
        faults: FaultPlan | None = None,
    ) -> None:
        self.addresses = [
            address if isinstance(address, str) else f"{address[0]}:{address[1]}"
            for address in workers
        ]
        if not self.addresses:
            raise ValueError("RemoteBackend needs at least one worker address")
        for address in self.addresses:
            parse_worker(address)  # fail at construction, not mid-sweep
        self.job_deadline = check_limits(max_attempts, job_deadline)
        self.max_attempts = max_attempts
        self.trace_cache = trace_cache
        if cost_model is None:
            from repro.experiments.batch import session_cost_model

            cost_model = session_cost_model()
        self.cost_model = cost_model
        self.connect_timeout = connect_timeout
        self.faults = faults
        self.last_provider: TraceProvider | None = None
        #: Jobs struck by the deadline and re-dispatched (hedged retries).
        self.stragglers = 0
        #: ``need_trace`` requests answered from a prefetched frame.
        self.prefetch_hits = 0

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        import asyncio

        requests = list(requests)
        self.last_provider = TraceProvider(cache=self.trace_cache)
        if not requests:
            return []
        scheduler = Scheduler(self.cost_model, self.max_attempts, self.job_deadline)
        submission, _ = scheduler.submit(requests[0].experiment, requests)
        workers = [
            WorkerLink(address, *parse_worker(address), slots=0)
            for address in self.addresses
        ]
        dispatcher = asyncio.run(self._sweep(scheduler, submission, workers, progress))
        self.stragglers += dispatcher.stragglers
        self.prefetch_hits += dispatcher.prefetch_hits
        if submission.status == "failed":
            raise CellExecutionError(submission.error)
        if submission.remaining:
            unfinished = [
                request.describe()
                for request, fingerprint in zip(submission.requests, submission.fingerprints)
                if fingerprint in submission.remaining
            ]
            detail = "; ".join(
                f"{worker.id}: {worker.error}"
                for worker in sorted(workers, key=lambda worker: worker.id)
                if worker.error
            )
            raise CellExecutionError(
                f"{len(unfinished)} cell(s) unfinished after losing all workers "
                f"({detail or 'no worker reachable'}): {unfinished[:3]}"
            )
        return [scheduler.cells[request.fingerprint()].stats for request in requests]

    async def _sweep(
        self,
        scheduler: Scheduler,
        submission: Submission,
        workers: list[WorkerLink],
        progress: ProgressFn | None,
    ) -> JobDispatcher:
        dispatcher = JobDispatcher(
            scheduler,
            self.last_provider,
            connect_timeout=self.connect_timeout,
            faults=self.faults,
            note=progress,
        )
        for worker in workers:
            dispatcher.spawn(worker)
        async with dispatcher.work:
            await dispatcher.work.wait_for(
                lambda: submission.status != "running"
                or all(worker.dead for worker in workers)
            )
        await dispatcher.close()
        return dispatcher


# ---------------------------------------------------------------- loopback fleet


def resolve_worker_fleet(
    spec: str | None, stack, trace_cache_dir: str | None = None
) -> list[str] | None:
    """A ``--remote-workers`` value -> agent addresses (one parser for every
    CLI entry point).

    ``auto:N`` spawns a loopback fleet whose lifetime is tied to ``stack``
    (a :class:`contextlib.ExitStack`); anything else is a comma-separated
    ``host:port`` list, validated up front so typos fail before the sweep.
    """
    if spec is None:
        return None
    if spec.startswith("auto:"):
        count = spec.split(":", 1)[1].strip()
        if not count.isdigit() or int(count) < 1:
            raise ValueError(
                f"auto fleet size must be a positive integer, got {count!r} "
                "(expected e.g. auto:2)"
            )
        return stack.enter_context(
            local_worker_fleet(int(count), trace_cache_dir=trace_cache_dir)
        )
    addresses = [address.strip() for address in spec.split(",") if address.strip()]
    if not addresses:
        raise ValueError(
            f"no worker addresses in {spec!r} (expected a comma-separated "
            "host:port list, or auto:N for a loopback fleet)"
        )
    for address in addresses:
        parse_worker(address)
    return addresses


@contextmanager
def local_worker_fleet(
    count: int,
    trace_cache_dir: str | None = None,
    slots: int = 1,
    startup_timeout: float = 30.0,
) -> Iterator[list[str]]:
    """``count`` loopback ``svw-repro worker`` subprocesses on ephemeral ports.

    Yields their ``host:port`` addresses and tears the agents down on
    exit.  This is what ``svw-repro bench-sweep --remote-workers auto:N``
    uses: real worker processes, real sockets, no port coordination --
    each agent binds port 0 and reports the kernel's pick on stdout.
    """
    if count < 1:
        raise ValueError("a worker fleet needs at least one agent")
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    command = [
        sys.executable, "-m", "repro.harness.cli",
        "worker", "--host", "127.0.0.1", "--port", "0", "--quiet",
    ]
    if trace_cache_dir is not None:
        command += ["--trace-cache-dir", trace_cache_dir]
    if slots != 1:
        command += ["--slots", str(slots)]
    agents: list[subprocess.Popen] = []
    try:
        for _ in range(count):
            agents.append(
                subprocess.Popen(
                    command, stdout=subprocess.PIPE, env=env, text=True, bufsize=1
                )
            )
        addresses = []
        deadline = time.monotonic() + startup_timeout
        for agent in agents:
            assert agent.stdout is not None
            # Wait for readability before readline: a worker wedged before
            # printing its address must trip the timeout, not hang the CLI.
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select(
                [agent.stdout], [], [], remaining
            )[0]:
                raise RuntimeError(
                    f"worker agent (pid {agent.pid}) reported no address "
                    f"within {startup_timeout:.0f}s"
                )
            line = agent.stdout.readline().strip()
            if "listening on" not in line:
                raise RuntimeError(
                    f"worker agent failed to start (pid {agent.pid}): {line!r}"
                )
            addresses.append(line.rsplit(" ", 1)[-1])
        yield addresses
    finally:
        for agent in agents:
            agent.terminate()
        for agent in agents:
            try:
                agent.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                agent.kill()
                agent.wait()
