"""Campaign control plane: sweeps as a service.

:class:`~repro.experiments.remote.RemoteBackend` fans *one* sweep from
*one* client across a static worker list.  This module is the layer the
ROADMAP calls for above it: a long-lived **campaign daemon**
(``svw-repro campaignd``) that takes sweep submissions from many
concurrent clients, schedules their union across a dynamic worker fleet,
and survives restarts on either side of the wire.

Architecture
------------

Everything speaks the PR-5 wire format (length-prefixed ``J`` JSON /
``T`` raw-codec / negotiated ``Z`` zlib frames; nothing pickled ever
crosses a socket):

- **Clients** connect with a ``hello`` and issue JSON requests:
  ``submit`` (an :class:`~repro.experiments.spec.ExperimentSpec` payload,
  or an explicit cell list), ``status``, ``results``, ``cancel``, and
  ``stats`` (fleet/scheduler introspection).  The sync
  :class:`CampaignClient` wraps this, and :class:`CampaignBackend` makes
  the daemon the fourth execution backend -- bit-identical to
  :class:`~repro.experiments.backends.SerialBackend` because the daemon
  runs the same codec bytes through the same worker agents and the client
  re-verifies every stats fingerprint.
- **Workers** are ordinary ``svw-repro worker`` agents that additionally
  ``register``: they dial the daemon, advertise their port, slots, and
  capabilities (compression codecs), then heartbeat; the daemon dials
  *back* with the ordinary job protocol, one connection per slot.  A
  missed heartbeat deregisters the worker and re-queues its in-flight
  cells; a ``drain`` request stops new assignments and answers
  ``drained`` once in-flight cells finish.  Workers reconnect through
  daemon restarts on their own.

Scheduling is **cell-granular across campaigns**: every submission's
cells land in one global table keyed by the
:meth:`~repro.experiments.spec.RunRequest.fingerprint` content address,
so two users sweeping overlapping grids pay for the union once -- an
overlapping cell is simulated exactly once and its result fans out to
every waiting campaign.  Dispatch is longest-expected-job-first under
the persisted :class:`~repro.experiments.batch.CostModel`, exactly like
the remote backend.

Durability: with ``--cache-dir`` the daemon anchors a central
:class:`~repro.experiments.store.ResultStore` (completed cells are
persisted there the moment they arrive, and satisfied from there at
submit time), journals each campaign under ``<cache-dir>/campaigns/``,
and persists the cost model.  Journals are JSONL (schema 2): one
atomically-written header record naming the submission, then one
appended record per state transition and completed cell.  Replay is
tolerant by construction -- a record torn by kill -9 mid-append is
skipped with a warning and the store recheck recovers the cell.  A
restarted daemon replays the journal: finished cells hit the store,
unfinished ones re-enter the queue, and reconnecting clients
(or idempotent re-submissions -- campaign ids are content addresses of
the submission) resume without recomputing anything.

Resilience (PR 7): per-job execution deadlines derived from the cost
model strike stragglers and re-dispatch their cells; repeated strikes
quarantine a worker with exponential-backoff readmission; a seeded
:class:`~repro.experiments.faults.FaultPlan` can be injected to prove
all of it deterministically (the ``chaos-equivalence`` CI gate).
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.backends import CellExecutionError, ProgressFn, SerialBackend
from repro.experiments.faults import FaultPlan
from repro.experiments.remote import (
    _HEADER,
    FRAME_JSON,
    FRAME_TRACE,
    FRAME_ZTRACE,
    PROTOCOL_VERSION,
    SUPPORTED_COMPRESSION,
    RemoteProtocolError,
    build_job_message,
    check_frame_header,
    derive_deadline,
    negotiated_zlib,
    parse_worker,
    recv_json,
    send_json,
)
from repro.experiments.spec import ExperimentSpec, RunRequest
from repro.experiments.store import ResultStore
from repro.experiments.traces import TraceProvider, request_key
from repro.fingerprint import stable_digest
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

#: Journal payload layout version.  Schema 2 is JSONL: an atomic header
#: record plus appended transition records.
JOURNAL_SCHEMA = 2

#: Campaign states a client can observe.
TERMINAL_STATES = ("done", "failed", "cancelled")


class CampaignError(RuntimeError):
    """A campaign request failed (unknown id, malformed submission, ...)."""


class CampaignUnreachableError(CampaignError):
    """No daemon answered within ``retry_timeout`` -- a connection-level
    outage, not a request error, so callers may degrade gracefully
    (``CampaignBackend(fallback="local")`` runs the cells serially)."""


# ------------------------------------------------------------- asyncio framing
# The daemon speaks the exact wire format of repro.experiments.remote, but
# over asyncio streams; validation is shared via check_frame_header and the
# same typed-JSON rules.


async def _recv_frame_async(reader) -> tuple[bytes, bytes]:
    import asyncio

    try:
        kind, length = _HEADER.unpack(await reader.readexactly(_HEADER.size))
        check_frame_header(kind, length)
        return kind, await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc


async def _recv_json_async(reader) -> dict:
    kind, payload = await _recv_frame_async(reader)
    if kind != FRAME_JSON:
        raise RemoteProtocolError(f"expected a JSON frame, got kind {kind!r}")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"undecodable JSON frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise RemoteProtocolError("JSON frame is not a typed object")
    return message


async def _send_frame_async(writer, kind: bytes, payload: bytes) -> None:
    writer.write(_HEADER.pack(kind, len(payload)) + payload)
    await writer.drain()


async def _send_json_async(writer, message: dict) -> None:
    await _send_frame_async(
        writer, FRAME_JSON, json.dumps(message, sort_keys=True).encode("utf-8")
    )


async def _send_trace_async(writer, data: bytes, compress: bool) -> None:
    if compress:
        import zlib

        await _send_frame_async(writer, FRAME_ZTRACE, zlib.compress(data, level=1))
    else:
        await _send_frame_async(writer, FRAME_TRACE, data)


# ------------------------------------------------------------- daemon state


@dataclass
class _Cell:
    """One unique (config, workload, budget) cell across all campaigns."""

    fingerprint: str
    request: RunRequest
    payload: dict
    status: str = "pending"  # pending | in_flight | done | failed
    campaigns: set[str] = field(default_factory=set)
    attempts: int = 0
    error: str | None = None
    stats_payload: dict | None = None
    stats_fingerprint: str | None = None


@dataclass
class _Campaign:
    """One submission: an ordered view over shared cells."""

    id: str
    name: str
    fingerprints: list[str]
    cell_payloads: list[dict]
    remaining: set[str] = field(default_factory=set)
    status: str = "running"
    error: str | None = None


@dataclass
class _Worker:
    """One registered agent (the daemon dials back for jobs)."""

    id: str
    host: str
    port: int
    slots: int
    compress: list[str]
    last_seen: float = 0.0
    draining: bool = False
    dead: bool = False
    in_flight: int = 0
    jobs_done: int = 0
    tasks: list = field(default_factory=list)
    job_writers: list = field(default_factory=list)


@dataclass
class _WorkerHealth:
    """Strike/quarantine record for one worker id.

    Outlives the :class:`_Worker` registration (keyed by ``host:port``
    in the daemon's ``_health`` map), so a worker that fails, drops off
    the registry, and re-registers carries its history with it.
    """

    strikes: int = 0
    quarantines: int = 0
    quarantined_until: float = 0.0  # time.monotonic() deadline, 0 = clear


class _CellFailed(Exception):
    """A worker answered with a deterministic error frame for a cell."""


def campaign_id_for(name: str, fingerprints: Sequence[str]) -> str:
    """Campaign ids are content addresses of the submission itself, so a
    client that resubmits after a lost connection (or a daemon restart)
    attaches to the same campaign instead of forking a duplicate."""
    return stable_digest({"name": name, "cells": list(fingerprints)})


def spec_campaign_id(spec: "ExperimentSpec") -> str:
    """The campaign id a daemon will assign this spec's submission --
    computable offline, so ``svw-repro status/cancel`` can address a
    campaign by re-deriving the id from the same spec arguments."""
    fingerprints: list[str] = []
    seen: set[str] = set()
    for request in spec.cells():
        fingerprint = request.fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            fingerprints.append(fingerprint)
    return campaign_id_for(spec.name, fingerprints)


# ------------------------------------------------------------- journal reading


def _read_journal(path: Path) -> tuple[dict | None, int]:
    """Parse one journal file tolerantly.

    Returns ``(payload, torn_records)`` where ``payload`` has the header
    fields (``name``/``status``/``error``/``cells``) with the status
    updated by the last intact ``status`` record, or ``None`` when the
    file is unreadable or its header is damaged.  ``torn_records`` counts
    skipped unparseable lines -- the scar tissue of interrupted appends.
    """
    try:
        text = path.read_text()
    except OSError:
        return None, 0
    header: dict | None = None
    torn = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal record is not an object")
        except ValueError:
            torn += 1
            continue
        if header is None:
            if (
                record.get("record") != "campaign"
                or record.get("schema") != JOURNAL_SCHEMA
            ):
                torn += 1
                continue
            header = record
        elif record.get("record") == "status":
            header["status"] = str(record.get("status", header.get("status")))
            header["error"] = record.get("error")
        # "cell" records are breadcrumbs only; the store recheck is
        # authoritative for per-cell completion.
    return header, torn


@dataclass
class JournalScrubReport:
    """What ``svw-repro fsck`` found (and fixed) in the journal dir."""

    scanned: int = 0
    campaigns: int = 0
    torn_records: int = 0
    unreadable: list[str] = field(default_factory=list)
    repaired: int = 0

    @property
    def clean(self) -> bool:
        return not self.torn_records and not self.unreadable

    def describe(self) -> str:
        parts = [f"{self.scanned} journal(s), {self.campaigns} readable campaign(s)"]
        if self.torn_records:
            parts.append(f"{self.torn_records} torn record(s)")
        if self.unreadable:
            parts.append(f"{len(self.unreadable)} unreadable file(s)")
        if self.repaired:
            parts.append(f"{self.repaired} repaired")
        return ", ".join(parts)


def scrub_journals(journal_dir: str | Path, fix: bool = False) -> JournalScrubReport:
    """Scan (and with ``fix``, compact) every campaign journal.

    A torn record never blocks replay -- the daemon skips it -- so this
    is hygiene, not rescue: ``fix`` rewrites each damaged JSONL journal
    atomically with only its intact records, and removes files whose
    header is beyond recovery (a journal that cannot name its campaign
    resumes nothing anyway).
    """
    journal_dir = Path(journal_dir)
    report = JournalScrubReport()
    if not journal_dir.is_dir():
        return report
    from repro.ioutil import atomic_write_text

    for path in sorted(journal_dir.glob("*.jsonl")):
        report.scanned += 1
        payload, torn = _read_journal(path)
        report.torn_records += torn
        if payload is None:
            report.unreadable.append(path.name)
            if fix:
                path.unlink(missing_ok=True)
                report.repaired += 1
            continue
        report.campaigns += 1
        if torn and fix:
            lines = []
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    if isinstance(json.loads(line), dict):
                        lines.append(line)
                except ValueError:
                    continue
            atomic_write_text(path, "\n".join(lines) + "\n")
            report.repaired += 1
    return report


# ------------------------------------------------------------------ the daemon


class CampaignDaemon:
    """The long-lived sweep service (``svw-repro campaignd``).

    Runs an asyncio server on a background thread (so tests and the CLI
    share one code path); all scheduler state lives on the event loop.
    ``cache_dir`` makes the daemon durable: results in a central
    :class:`~repro.experiments.store.ResultStore`, campaign journals under
    ``<cache-dir>/campaigns/``, and the scheduling cost model next to
    them.  Without it the daemon still serves and dedups concurrent
    campaigns, but a restart forgets in-flight submissions (clients
    recover by idempotent resubmit).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | Path | None = None,
        trace_cache: TraceCache | None = None,
        cost_model=None,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        connect_timeout: float = 10.0,
        compress: bool = True,
        progress: Callable[[str], None] | None = None,
        job_deadline: float | str | None = "auto",
        quarantine_after: int = 3,
        quarantine_base: float = 5.0,
        quarantine_cap: float = 300.0,
        faults: FaultPlan | None = None,
        prefetch: bool = True,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if job_deadline is not None and job_deadline != "auto":
            job_deadline = float(job_deadline)
            if job_deadline <= 0:
                raise ValueError("job_deadline must be positive (or None/'auto')")
        self._bind_host = host
        self._bind_port = port
        self.host = host
        self.port = port
        self.store = ResultStore(cache_dir) if cache_dir is not None else None
        self.journal_dir: Path | None = (
            self.store.root / "campaigns" if self.store is not None else None
        )
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        if cost_model is None:
            from repro.experiments.batch import session_cost_model

            cost_model = session_cost_model()
        self.cost_model = cost_model
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.connect_timeout = connect_timeout
        self.compress = compress
        self.progress = progress
        self.job_deadline = job_deadline
        self.quarantine_after = quarantine_after
        self.quarantine_base = quarantine_base
        self.quarantine_cap = quarantine_cap
        self.faults = faults
        self.prefetch = prefetch
        #: worker id -> strike/quarantine history (persists across
        #: registrations for the daemon's lifetime).
        self._health: dict[str, _WorkerHealth] = {}
        self._provider = TraceProvider(cache=trace_cache)
        self._digests: dict[str, str] = {}
        #: Trace keys whose encoded bytes a prefetch produced / claimed
        #: (event-loop-confined, like the scheduler state around them).
        self._prefetched: set[str] = set()
        self._prefetch_claimed: set[str] = set()
        self._conn_writers: set = set()
        self._cells: dict[str, _Cell] = {}
        self._pending: set[str] = set()
        self._campaigns: dict[str, _Campaign] = {}
        self._workers: dict[str, _Worker] = {}
        self._closing = False
        self._loop = None
        self._stop = None
        self._work = None
        self._trace_lock = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        #: Results received from workers (each one is a dispatched cell;
        #: zero of these after a warm restart is the resume guarantee).
        self.cells_simulated = 0
        #: Cells satisfied straight from the central store (including every
        #: journal-replayed cell a restarted daemon finds already done).
        self.cells_from_store = 0
        #: Cells a submission shared with an already-known campaign.
        self.cells_deduped = 0
        #: Jobs struck by the per-job deadline (cell re-dispatched).
        self.stragglers = 0
        #: ``need_trace`` requests answered from a prefetched frame.
        self.prefetch_hits = 0
        #: Journal records skipped as torn during replay.
        self.journal_torn_records = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "CampaignDaemon":
        """Serve on a background thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self._run_loop, name="svw-campaignd", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("campaign daemon failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"campaign daemon failed to bind {self._bind_host}:{self._bind_port}: "
                f"{self._startup_error}"
            )
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving (idempotent).  In-flight worker results are lost --
        exactly the crash the journal exists for."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "CampaignDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run_loop(self) -> None:
        import asyncio

        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _amain(self) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._work = asyncio.Condition()
        self._trace_lock = asyncio.Lock()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._bind_host, self._bind_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.host, self.port = server.sockets[0].getsockname()[:2]
        if self.store is not None:
            self.cost_model.load_from(self.store.cost_model_path)
            await self._load_journals()
        self._ready.set()
        if self.progress is not None:
            self.progress(f"campaignd: listening on {self.address}")
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._closing = True
            async with self._work:
                self._work.notify_all()
            # Abort every open connection (jobs, registries, clients) so
            # their handler tasks unwind through the normal ConnectionError
            # paths before the loop tears down, instead of being cancelled
            # mid-await by asyncio.run's cleanup.
            for worker in list(self._workers.values()):
                for writer in worker.job_writers:
                    try:
                        writer.transport.abort()
                    except Exception:
                        pass
            for writer in list(self._conn_writers):
                try:
                    writer.transport.abort()
                except Exception:
                    pass
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if pending:
                await asyncio.wait(pending, timeout=5.0)
            if self.store is not None:
                self.cost_model.save(self.store.cost_model_path)

    # -- connection demux ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._conn_writers.add(writer)
        try:
            first = await _recv_json_async(reader)
            kind = first.get("type")
            if kind == "register":
                await self._serve_worker(first, reader, writer)
            elif kind == "hello":
                if first.get("protocol") != PROTOCOL_VERSION:
                    raise RemoteProtocolError(
                        f"client speaks protocol {first.get('protocol')!r}, "
                        f"need {PROTOCOL_VERSION}"
                    )
                await _send_json_async(
                    writer,
                    {
                        "type": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "service": "campaignd",
                    },
                )
                await self._serve_client(reader, writer)
            else:
                await _send_json_async(
                    writer,
                    {
                        "type": "error",
                        "message": f"expected hello or register, got {kind!r}",
                    },
                )
        except (ConnectionError, OSError, RemoteProtocolError):
            pass  # peer went away or spoke garbage; their connection is done
        finally:
            self._conn_writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    # -- worker registry -----------------------------------------------------

    async def _serve_worker(self, register: dict, reader, writer) -> None:
        import asyncio

        if register.get("protocol") != PROTOCOL_VERSION:
            await _send_json_async(
                writer,
                {"type": "error", "message": f"need protocol {PROTOCOL_VERSION}"},
            )
            return
        peer = writer.get_extra_info("peername")
        try:
            port = int(register["port"])
            slots = int(register.get("slots", 1))
        except (KeyError, TypeError, ValueError):
            await _send_json_async(
                writer, {"type": "error", "message": "register needs a numeric port"}
            )
            return
        if not 0 < port < 65536 or slots < 1:
            await _send_json_async(
                writer, {"type": "error", "message": "register port/slots out of range"}
            )
            return
        host = str(register.get("host") or (peer[0] if peer else "127.0.0.1"))
        health = self._health.get(f"{host}:{port}")
        if health is not None:
            remaining = health.quarantined_until - time.monotonic()
            if remaining > 0:
                # Refuse, don't drop: the worker's registry loop hears the
                # reason, backs off exponentially, and retries -- which IS
                # the readmission path once the quarantine lapses.
                await _send_json_async(
                    writer,
                    {
                        "type": "error",
                        "message": (
                            f"worker {host}:{port} quarantined for another "
                            f"{remaining:.1f}s after repeated failures"
                        ),
                    },
                )
                return
        advertised = register.get("compress")
        worker = _Worker(
            id=f"{host}:{port}",
            host=host,
            port=port,
            slots=min(slots, 64),
            compress=[str(c) for c in advertised] if isinstance(advertised, list) else [],
            last_seen=time.monotonic(),
        )
        async with self._work:
            old = self._workers.get(worker.id)
            if old is not None:
                # Replaced (worker restarted faster than its heartbeat
                # lapsed): retire the stale entry, its tasks exit on the
                # dead flag / aborted sockets.
                old.dead = True
                self._work.notify_all()
            self._workers[worker.id] = worker
        if old is not None:
            for stale in old.job_writers:
                try:
                    stale.transport.abort()
                except Exception:
                    pass
        worker.tasks = [
            asyncio.create_task(self._dispatch_loop(worker))
            for _ in range(worker.slots)
        ]
        await _send_json_async(
            writer,
            {"type": "registered", "worker": worker.id, "protocol": PROTOCOL_VERSION},
        )
        if self.progress is not None:
            self.progress(
                f"campaignd: worker {worker.id} registered ({worker.slots} slot(s))"
            )
        try:
            while not worker.dead:
                try:
                    message = await asyncio.wait_for(
                        _recv_json_async(reader), self.heartbeat_timeout
                    )
                except asyncio.TimeoutError:
                    break  # heartbeats stopped: the worker is gone
                worker.last_seen = time.monotonic()
                kind = message.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "drain":
                    async with self._work:
                        worker.draining = True
                        self._work.notify_all()
                    await asyncio.gather(*worker.tasks, return_exceptions=True)
                    await _send_json_async(writer, {"type": "drained"})
                    if self.progress is not None:
                        self.progress(f"campaignd: worker {worker.id} drained")
                    break
                raise RemoteProtocolError(f"unexpected registry frame {kind!r}")
        except (ConnectionError, OSError, RemoteProtocolError):
            pass
        finally:
            await self._remove_worker(worker)

    def _strike_locked(self, worker_id: str, reason: str) -> float | None:
        """Score one failure against a worker (caller holds ``_work``).

        Returns the quarantine pause in seconds when this strike tripped
        the threshold (``quarantine_after`` consecutive failures without a
        completed job), else None.  Each successive quarantine doubles the
        pause up to ``quarantine_cap``; a completed cell clears the strike
        count (see :meth:`_cell_done`), so only *repeated* failures
        escalate.
        """
        health = self._health.setdefault(worker_id, _WorkerHealth())
        health.strikes += 1
        if health.strikes < self.quarantine_after:
            return None
        pause = min(self.quarantine_base * (2 ** health.quarantines), self.quarantine_cap)
        health.quarantined_until = time.monotonic() + pause
        health.quarantines += 1
        health.strikes = 0
        return pause

    async def _remove_worker(self, worker: _Worker) -> None:
        import asyncio

        async with self._work:
            worker.dead = True
            if self._workers.get(worker.id) is worker:
                del self._workers[worker.id]
            self._work.notify_all()
        for writer in worker.job_writers:
            try:
                writer.transport.abort()
            except Exception:
                pass
        await asyncio.gather(*worker.tasks, return_exceptions=True)

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self, worker: _Worker) -> None:
        """One job connection to one worker slot: the asyncio twin of a
        :class:`~repro.experiments.remote.RemoteBackend` worker thread."""
        import asyncio

        reader = writer = None
        cell: _Cell | None = None
        try:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(worker.host, worker.port),
                    self.connect_timeout,
                )
                worker.job_writers.append(writer)
                hello: dict = {"type": "hello", "protocol": PROTOCOL_VERSION}
                if self.compress:
                    hello["compress"] = list(SUPPORTED_COMPRESSION)
                await _send_json_async(writer, hello)
                peer = await asyncio.wait_for(
                    _recv_json_async(reader), self.connect_timeout
                )
                if peer.get("type") != "hello" or peer.get("protocol") != PROTOCOL_VERSION:
                    raise RemoteProtocolError("worker hello mismatch")
            except (OSError, ConnectionError, RemoteProtocolError, asyncio.TimeoutError):
                # Unreachable from here (NAT, died between register and
                # dial-back): the registry handler reaps it on the next
                # heartbeat tick.
                async with self._work:
                    worker.dead = True
                    pause = self._strike_locked(worker.id, "dial-back failed")
                    self._work.notify_all()
                if pause is not None and self.progress is not None:
                    self.progress(
                        f"campaignd: worker {worker.id} quarantined for "
                        f"{pause:.1f}s (repeated failures, last: dial-back failed)"
                    )
                return
            compress = self.compress and negotiated_zlib(peer)
            prefetch_task: asyncio.Task | None = None

            def start_prefetch(current_key: str) -> None:
                """Trace-push pipelining: this slot just shipped a frame, so
                encode the next pending workload's frame behind the
                simulation now starting.  One outstanding prefetch per
                worker slot."""
                nonlocal prefetch_task
                if not self.prefetch:
                    return
                if prefetch_task is not None and not prefetch_task.done():
                    return
                request = self._prefetch_candidate(current_key)
                if request is None:
                    return
                prefetch_task = asyncio.create_task(self._run_prefetch(request))

            while True:
                cell = await self._next_cell(worker)
                if cell is None:
                    return
                try:
                    stats, seconds = await self._run_job(
                        reader, writer, cell, compress, start_prefetch
                    )
                except _CellFailed as exc:
                    await self._cell_failed(worker, cell, str(exc))
                    cell = None
                    continue
                except (OSError, ConnectionError, RemoteProtocolError) as exc:
                    await self._worker_lost(worker, cell, exc)
                    cell = None
                    return
                await self._cell_done(worker, cell, stats, seconds)
                cell = None
        except asyncio.CancelledError:
            if cell is not None:
                await self._worker_lost(worker, cell, ConnectionError("daemon shutdown"))
            raise
        finally:
            if writer is not None:
                try:
                    writer.close()
                except Exception:
                    pass

    async def _next_cell(self, worker: _Worker) -> _Cell | None:
        cost = self.cost_model.cost
        async with self._work:
            while True:
                if self._closing or worker.dead or worker.draining:
                    return None
                if self._pending:
                    fingerprint = max(
                        self._pending,
                        key=lambda fp: (cost(self._cells[fp].request), fp),
                    )
                    self._pending.discard(fingerprint)
                    cell = self._cells[fingerprint]
                    cell.status = "in_flight"
                    cell.attempts += 1
                    worker.in_flight += 1
                    return cell
                await self._work.wait()

    async def _run_job(
        self,
        reader,
        writer,
        cell: _Cell,
        compress: bool,
        on_trace_shipped: Callable[[str], None] | None = None,
    ) -> tuple[SimStats, float]:
        import asyncio

        key = request_key(cell.request)
        digest = self._digests.get(key)
        if digest is None and self._provider.has_encoded(
            cell.request.workload, cell.request.n_insts
        ):
            await self._encoded(cell.request)  # memoized; fills the digest map
            digest = self._digests.get(key)
        # The execution deadline covers the whole exchange (trace transfer
        # included): a worker quiet past it is a straggler, and the
        # TimeoutError -- an OSError -- rides the worker-lost path, which
        # re-queues the cell at another worker (hedged retry) and strikes
        # this one's health score.
        deadline = derive_deadline(self.cost_model, cell.request, self.job_deadline)
        loop = asyncio.get_running_loop()
        budget = None if deadline is None else loop.time() + deadline

        async def recv_within_deadline() -> dict:
            if budget is None:
                return await _recv_json_async(reader)
            remaining = budget - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"job deadline {deadline:.1f}s exceeded")
            try:
                return await asyncio.wait_for(_recv_json_async(reader), remaining)
            except asyncio.TimeoutError:
                self.stragglers += 1
                raise TimeoutError(f"job deadline {deadline:.1f}s exceeded") from None

        await _send_json_async(
            writer, build_job_message(cell.request, cell.fingerprint, key, digest)
        )
        while True:
            message = await recv_within_deadline()
            kind = message.get("type")
            if kind == "need_trace":
                data = await self._encoded(cell.request)
                if key in self._prefetched:
                    self.prefetch_hits += 1
                if self.faults is not None:
                    mutated = self.faults.mutate_trace("daemon.trace", data)
                    if mutated is not None:
                        data = mutated
                await _send_trace_async(writer, data, compress)
                if on_trace_shipped is not None:
                    on_trace_shipped(key)
            elif kind == "result":
                try:
                    stats = SimStats.from_dict(message["stats"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise _CellFailed(f"undecodable result payload: {exc}") from exc
                if stats.fingerprint() != message.get("fingerprint"):
                    raise _CellFailed(
                        "result fingerprint does not match its payload "
                        "(wire or schema skew)"
                    )
                return stats, float(message.get("seconds", 0.0))
            elif kind == "error":
                raise _CellFailed(str(message.get("message")))
            else:
                raise RemoteProtocolError(f"unexpected frame type {kind!r}")

    async def _encoded(self, request: RunRequest) -> bytes:
        """Encoded trace bytes for a cell; generation runs in a worker
        thread (never on the event loop) and at most once per key."""
        import asyncio

        key = request_key(request)
        async with self._trace_lock:
            data = await asyncio.get_running_loop().run_in_executor(
                None, self._provider.encoded, request.workload, request.n_insts
            )
            self._digests.setdefault(key, hashlib.sha256(data).hexdigest())
            return data

    def _prefetch_candidate(self, current_key: str) -> RunRequest | None:
        """The pending cell whose trace frame a prefetch should build next:
        the most expensive one (dispatch order) for a *different*, not yet
        encoded, not already claimed workload.  Event-loop-confined, no
        awaits -- atomic with respect to the scheduler."""
        cost = self.cost_model.cost
        best: _Cell | None = None
        for fingerprint in self._pending:
            cell = self._cells[fingerprint]
            key = request_key(cell.request)
            if key == current_key or key in self._prefetch_claimed:
                continue
            if self._provider.has_encoded(cell.request.workload, cell.request.n_insts):
                continue
            if best is None or (cost(cell.request), fingerprint) > (
                cost(best.request), best.fingerprint,
            ):
                best = cell
        if best is None:
            return None
        self._prefetch_claimed.add(request_key(best.request))
        return best.request

    async def _run_prefetch(self, request: RunRequest) -> None:
        """Build one trace frame ahead of demand (trace-push pipelining).
        Failures are swallowed: generation errors surface deterministically
        when the cell itself dispatches, never from a prefetch."""
        key = request_key(request)
        try:
            await self._encoded(request)
        except Exception:
            self._prefetch_claimed.discard(key)
            return
        self._prefetched.add(key)

    # -- cell completion -----------------------------------------------------

    async def _cell_done(
        self, worker: _Worker, cell: _Cell, stats: SimStats, seconds: float
    ) -> None:
        if self.store is not None:
            provenance = {
                k: cell.payload[k]
                for k in ("experiment", "config_label", "n_insts", "warmup", "validate")
                if k in cell.payload
            }
            provenance["workload"] = cell.request.workload.name
            provenance["config_name"] = cell.request.config.name
            self.store.save_stats(cell.fingerprint, stats, provenance=provenance)
        self.cost_model.observe(cell.request.config, cell.request.n_insts, seconds)
        finished: list[_Campaign] = []
        affected: list[_Campaign] = []
        async with self._work:
            worker.in_flight -= 1
            worker.jobs_done += 1
            self.cells_simulated += 1
            health = self._health.get(worker.id)
            if health is not None:
                health.strikes = 0  # a completed cell proves health
            cell.status = "done"
            cell.stats_payload = stats.to_dict()
            cell.stats_fingerprint = stats.fingerprint()
            for campaign_id in cell.campaigns:
                campaign = self._campaigns[campaign_id]
                campaign.remaining.discard(cell.fingerprint)
                affected.append(campaign)
                if not campaign.remaining and campaign.status == "running":
                    campaign.status = "done"
                    finished.append(campaign)
            self._work.notify_all()
        if self.progress is not None:
            self.progress(
                f"campaignd: {cell.request.describe()} [done @{worker.id}]"
            )
        for campaign in affected:
            self._journal_event(
                campaign, {"record": "cell", "fingerprint": cell.fingerprint}
            )
        for campaign in finished:
            self._journal_status(campaign)

    async def _cell_failed(self, worker: _Worker, cell: _Cell, message: str) -> None:
        async with self._work:
            worker.in_flight -= 1
            failed = self._fail_cell_locked(cell, message)
            self._work.notify_all()
        for campaign in failed:
            self._journal_status(campaign)

    async def _worker_lost(self, worker: _Worker, cell: _Cell, exc: Exception) -> None:
        failed: list[_Campaign] = []
        async with self._work:
            worker.in_flight -= 1
            worker.dead = True
            pause = self._strike_locked(worker.id, str(exc))
            if cell.status == "in_flight":
                if cell.attempts >= self.max_attempts:
                    failed = self._fail_cell_locked(
                        cell,
                        f"worker lost {cell.attempts} times "
                        f"(last: {worker.id}: {exc})",
                    )
                else:
                    cell.status = "pending"
                    self._pending.add(cell.fingerprint)
            self._work.notify_all()
        if self.progress is not None:
            self.progress(f"campaignd: worker {worker.id} lost ({exc})")
            if pause is not None:
                self.progress(
                    f"campaignd: worker {worker.id} quarantined for {pause:.1f}s "
                    f"(repeated failures, last: {exc})"
                )
        for campaign in failed:
            self._journal_status(campaign)

    def _fail_cell_locked(self, cell: _Cell, message: str) -> list[_Campaign]:
        """Mark a cell (and every campaign waiting on it) failed; release
        the failed campaigns' claims on other cells.  Caller holds the
        condition and writes the returned journals after releasing it."""
        cell.status = "failed"
        cell.error = message
        affected: list[_Campaign] = []
        for campaign_id in list(cell.campaigns):
            campaign = self._campaigns[campaign_id]
            if campaign.status != "running":
                continue
            campaign.status = "failed"
            campaign.error = f"{cell.request.describe()}: {message}"
            for fingerprint in list(campaign.remaining):
                if fingerprint == cell.fingerprint:
                    continue
                other = self._cells.get(fingerprint)
                if other is None:
                    continue
                other.campaigns.discard(campaign_id)
                if not other.campaigns and other.status == "pending":
                    self._pending.discard(fingerprint)
                    del self._cells[fingerprint]
            campaign.remaining.clear()
            affected.append(campaign)
        return affected

    # -- client API ----------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        while True:
            message = await _recv_json_async(reader)
            kind = message.get("type")
            try:
                if kind == "submit":
                    reply = await self._handle_submit(message)
                elif kind == "status":
                    reply = await self._handle_status(message)
                elif kind == "results":
                    reply = await self._handle_results(message)
                elif kind == "cancel":
                    reply = await self._handle_cancel(message)
                elif kind == "stats":
                    reply = await self._handle_stats()
                else:
                    reply = {
                        "type": "error",
                        "message": f"unknown request type {kind!r}",
                    }
            except CampaignError as exc:
                reply = {"type": "error", "message": str(exc)}
            except (KeyError, TypeError, ValueError) as exc:
                reply = {
                    "type": "error",
                    "message": f"malformed request: {type(exc).__name__}: {exc}",
                }
            await _send_json_async(writer, reply)

    async def _handle_submit(self, message: dict) -> dict:
        if self._closing:
            raise CampaignError("daemon is shutting down")
        spec_payload = message.get("spec")
        cells_payload = message.get("cells")
        if spec_payload is not None:
            try:
                spec = ExperimentSpec.from_payload(spec_payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise CampaignError(f"bad experiment payload: {exc}") from exc
            requests = spec.cells()
            name = spec.name
        elif cells_payload is not None:
            if not isinstance(cells_payload, list):
                raise CampaignError("cells must be a list of run-request payloads")
            try:
                requests = [RunRequest.from_payload(p) for p in cells_payload]
            except (KeyError, TypeError, ValueError) as exc:
                raise CampaignError(f"bad cell payload: {exc}") from exc
            name = str(message.get("name") or (requests[0].experiment if requests else ""))
        else:
            raise CampaignError("submit needs a spec or a cells list")
        if not requests:
            raise CampaignError("submission has no cells")
        campaign, attached = await self._register_campaign(name, requests)
        if not attached:
            self._write_journal(campaign)
            if self.progress is not None:
                self.progress(
                    f"campaignd: campaign {campaign.id[:12]} ({name}) submitted, "
                    f"{len(campaign.fingerprints)} cell(s)"
                )
        total, done = self._campaign_counts(campaign)
        return {
            "type": "submitted",
            "campaign": campaign.id,
            "state": campaign.status,
            "attached": attached,
            "total": total,
            "done": done,
        }

    async def _register_campaign(
        self, name: str, requests: Sequence[RunRequest]
    ) -> tuple[_Campaign, bool]:
        """Get-or-create the campaign for a submission (id is content-
        addressed, so identical submissions attach)."""
        fingerprints: list[str] = []
        payloads: list[dict] = []
        by_fp: dict[str, RunRequest] = {}
        for request in requests:
            fingerprint = request.fingerprint()
            if fingerprint in by_fp:
                continue
            by_fp[fingerprint] = request
            fingerprints.append(fingerprint)
            payloads.append(request.to_payload())
        campaign_id = campaign_id_for(name, fingerprints)
        async with self._work:
            existing = self._campaigns.get(campaign_id)
            if existing is not None:
                return existing, True
            campaign = _Campaign(
                id=campaign_id,
                name=name,
                fingerprints=fingerprints,
                cell_payloads=payloads,
            )
            for fingerprint, payload in zip(fingerprints, payloads):
                cell = self._cells.get(fingerprint)
                if cell is None:
                    cell = _Cell(
                        fingerprint=fingerprint,
                        request=by_fp[fingerprint],
                        payload=payload,
                    )
                    stats = (
                        self.store.load_stats(fingerprint)
                        if self.store is not None
                        else None
                    )
                    if stats is not None:
                        cell.status = "done"
                        cell.stats_payload = stats.to_dict()
                        cell.stats_fingerprint = stats.fingerprint()
                        self.cells_from_store += 1
                    else:
                        self._pending.add(fingerprint)
                    self._cells[fingerprint] = cell
                else:
                    self.cells_deduped += 1
                cell.campaigns.add(campaign_id)
                if cell.status in ("pending", "in_flight"):
                    campaign.remaining.add(fingerprint)
                elif cell.status == "failed":
                    campaign.status = "failed"
                    campaign.error = f"{cell.request.describe()}: {cell.error}"
            if campaign.status == "running" and not campaign.remaining:
                campaign.status = "done"
            self._campaigns[campaign_id] = campaign
            self._work.notify_all()
        return campaign, False

    def _campaign_counts(self, campaign: _Campaign) -> tuple[int, int]:
        total = len(campaign.fingerprints)
        if campaign.status == "done":
            return total, total
        done = 0
        for fingerprint in campaign.fingerprints:
            cell = self._cells.get(fingerprint)
            if cell is not None and cell.status == "done":
                done += 1
        return total, done

    def _campaign_for(self, message: dict) -> _Campaign:
        campaign_id = message.get("campaign")
        campaign = (
            self._campaigns.get(campaign_id) if isinstance(campaign_id, str) else None
        )
        if campaign is None:
            raise CampaignError(f"unknown campaign {str(campaign_id)[:16]!r}")
        return campaign

    async def _handle_status(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        total, done = self._campaign_counts(campaign)
        return {
            "type": "status",
            "campaign": campaign.id,
            "name": campaign.name,
            "state": campaign.status,
            "total": total,
            "done": done,
            "error": campaign.error,
        }

    async def _handle_results(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        results: dict[str, dict] = {}
        for fingerprint in campaign.fingerprints:
            cell = self._cells.get(fingerprint)
            if cell is not None and cell.stats_payload is not None:
                results[fingerprint] = {
                    "stats": cell.stats_payload,
                    "fingerprint": cell.stats_fingerprint,
                }
            elif self.store is not None:
                stats = self.store.load_stats(fingerprint)
                if stats is not None:
                    results[fingerprint] = {
                        "stats": stats.to_dict(),
                        "fingerprint": stats.fingerprint(),
                    }
        total, done = self._campaign_counts(campaign)
        return {
            "type": "results",
            "campaign": campaign.id,
            "state": campaign.status,
            "total": total,
            "done": done,
            "error": campaign.error,
            "results": results,
        }

    async def _handle_cancel(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        async with self._work:
            if campaign.status == "running":
                campaign.status = "cancelled"
                for fingerprint in list(campaign.remaining):
                    cell = self._cells.get(fingerprint)
                    if cell is None:
                        continue
                    cell.campaigns.discard(campaign.id)
                    if not cell.campaigns and cell.status == "pending":
                        # Nobody else wants it and it never started: gone.
                        # In-flight cells finish and land in the store.
                        self._pending.discard(fingerprint)
                        del self._cells[fingerprint]
                campaign.remaining.clear()
                self._work.notify_all()
        self._journal_status(campaign)
        return {"type": "cancelled", "campaign": campaign.id, "state": campaign.status}

    async def _handle_stats(self) -> dict:
        now = time.monotonic()
        async with self._work:
            workers = [
                {
                    "id": worker.id,
                    "slots": worker.slots,
                    "compress": worker.compress,
                    "in_flight": worker.in_flight,
                    "jobs_done": worker.jobs_done,
                    "draining": worker.draining,
                    "strikes": (
                        self._health[worker.id].strikes
                        if worker.id in self._health
                        else 0
                    ),
                }
                for worker in self._workers.values()
            ]
            quarantined = [
                {
                    "id": worker_id,
                    "seconds_left": round(health.quarantined_until - now, 1),
                    "quarantines": health.quarantines,
                }
                for worker_id, health in sorted(self._health.items())
                if health.quarantined_until > now
            ]
            pending = len(self._pending)
            in_flight = sum(
                1 for cell in self._cells.values() if cell.status == "in_flight"
            )
        return {
            "type": "stats",
            "workers": sorted(workers, key=lambda w: w["id"]),
            "quarantined": quarantined,
            "campaigns": len(self._campaigns),
            "cells_pending": pending,
            "cells_in_flight": in_flight,
            "cells_simulated": self.cells_simulated,
            "cells_from_store": self.cells_from_store,
            "cells_deduped": self.cells_deduped,
            "stragglers": self.stragglers,
            "prefetch_hits": self.prefetch_hits,
        }

    # -- journal -------------------------------------------------------------
    #
    # Schema 2 is JSONL.  The header record (written atomically, whole
    # file) names the submission; every later state change is an O(1)
    # *append*: a ``status`` record on done/failed/cancelled, a ``cell``
    # breadcrumb per completed cell.  Appends are the one non-atomic write
    # in the tree -- a kill -9 mid-append leaves a torn final line -- so
    # replay skips any unparseable line with a warning and lets the store
    # recheck recover what the breadcrumb would have said.  The ``cell``
    # records are exactly that: breadcrumbs for humans and fsck, never
    # load-bearing (the store is the single source of truth for
    # completion).

    def _journal_path(self, campaign: _Campaign) -> Path:
        assert self.journal_dir is not None
        return self.journal_dir / f"{campaign.id}.jsonl"

    def _write_journal(self, campaign: _Campaign) -> None:
        """Write a campaign's full journal snapshot (header + current
        status), atomically, at submission time."""
        if self.journal_dir is None:
            return
        from repro.ioutil import atomic_write_text

        header = {
            "record": "campaign",
            "schema": JOURNAL_SCHEMA,
            "campaign": campaign.id,
            "name": campaign.name,
            "status": campaign.status,
            "error": campaign.error,
            "cells": campaign.cell_payloads,
        }
        atomic_write_text(
            self._journal_path(campaign), json.dumps(header, sort_keys=True) + "\n"
        )

    def _journal_event(self, campaign: _Campaign, record: dict) -> None:
        """Append one record to a campaign's journal (best-effort; the
        configured fault plan may tear the write, as kill -9 would)."""
        if self.journal_dir is None:
            return
        from repro.ioutil import append_bytes

        path = self._journal_path(campaign)
        if not path.exists():
            return  # never journaled (no header): nothing to append to
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        if self.faults is not None:
            keep = self.faults.torn_append("daemon.journal", len(data))
            if keep is not None:
                data = data[:keep]
        try:
            append_bytes(path, data)
        except OSError:
            pass  # journal loss degrades resume, never correctness

    def _journal_status(self, campaign: _Campaign) -> None:
        self._journal_event(
            campaign,
            {"record": "status", "status": campaign.status, "error": campaign.error},
        )

    async def _load_journals(self) -> None:
        """Replay persisted campaigns (daemon restart): finished cells are
        satisfied from the store, unfinished ones re-enter the queue.

        Only ``*.jsonl`` files are journals.  Torn records -- the final
        line a kill -9 interrupted, or the line that merged with the
        append after it -- are skipped with a warning; the store recheck
        in :meth:`_register_campaign` recovers anything a lost breadcrumb
        would have recorded.
        """
        assert self.journal_dir is not None
        for path in sorted(self.journal_dir.glob("*.jsonl")):
            payload, torn = _read_journal(path)
            if torn:
                self.journal_torn_records += torn
                if self.progress is not None:
                    self.progress(
                        f"campaignd: journal {path.name}: skipped {torn} torn "
                        f"record(s) (interrupted append?); the store recheck "
                        f"recovers any lost completions"
                    )
            if payload is None:
                continue  # unreadable/stale journals are skipped, not fatal
            try:
                name = str(payload["name"])
                status = str(payload["status"])
                requests = [RunRequest.from_payload(p) for p in payload["cells"]]
            except (KeyError, TypeError, ValueError):
                continue
            if not requests:
                continue
            if status == "running":
                campaign, attached = await self._register_campaign(name, requests)
                if not attached and self.progress is not None:
                    total, done = self._campaign_counts(campaign)
                    self.progress(
                        f"campaignd: resumed campaign {campaign.id[:12]} ({name}): "
                        f"{done}/{total} cells already done"
                    )
            else:
                # Terminal campaigns come back queryable but inert.
                fingerprints = [r.fingerprint() for r in requests]
                campaign = _Campaign(
                    id=campaign_id_for(name, fingerprints),
                    name=name,
                    fingerprints=fingerprints,
                    cell_payloads=[r.to_payload() for r in requests],
                    status=status,
                    error=payload.get("error"),
                )
                self._campaigns.setdefault(campaign.id, campaign)


# ------------------------------------------------------------------ the client


class CampaignClient:
    """Synchronous client for one campaign daemon.

    Maintains a single connection, transparently reconnecting (with
    bounded retries) through daemon restarts -- which is what makes the
    published resume story real: ``submit`` is idempotent (campaign ids
    are content addresses), so a client that loses the daemon simply
    reconnects, resubmits, and keeps polling.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = 10.0,
        retry_interval: float = 0.5,
        retry_timeout: float = 60.0,
    ) -> None:
        self.host, self.port = parse_worker(address)
        self.address = f"{self.host}:{self.port}"
        self.connect_timeout = connect_timeout
        self.retry_interval = retry_interval
        self.retry_timeout = retry_timeout
        self._sock: socket.socket | None = None

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        try:
            send_json(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
            hello = recv_json(sock)
            if hello.get("type") != "hello" or hello.get("protocol") != PROTOCOL_VERSION:
                raise RemoteProtocolError(
                    f"peer at {self.address} is not a campaign daemon"
                )
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _rpc(self, message: dict) -> dict:
        """One request/reply, reconnecting through connection loss until
        ``retry_timeout`` is exhausted."""
        deadline = time.monotonic() + self.retry_timeout
        last: Exception | None = None
        while True:
            try:
                if self._sock is None:
                    self._connect()
                assert self._sock is not None
                send_json(self._sock, message)
                reply = recv_json(self._sock)
            except (ConnectionError, OSError, socket.timeout) as exc:
                self._drop()
                last = exc
                if time.monotonic() >= deadline:
                    raise CampaignUnreachableError(
                        f"campaign daemon at {self.address} unreachable "
                        f"for {self.retry_timeout:.0f}s: {last}"
                    ) from exc
                time.sleep(self.retry_interval)
                continue
            if reply.get("type") == "error":
                raise CampaignError(str(reply.get("message")))
            return reply

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "CampaignClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- requests ------------------------------------------------------------

    def submit(
        self,
        spec: ExperimentSpec | None = None,
        cells: Sequence[RunRequest] | None = None,
        name: str | None = None,
    ) -> dict:
        """Submit a sweep; returns the daemon's ``submitted`` reply
        (``campaign`` id, ``total``/``done`` counts, ``attached`` flag)."""
        message: dict = {"type": "submit"}
        if spec is not None:
            message["spec"] = spec.to_payload()
        elif cells is not None:
            message["cells"] = [request.to_payload() for request in cells]
        else:
            raise ValueError("submit needs a spec or cells")
        if name is not None:
            message["name"] = name
        return self._rpc(message)

    def status(self, campaign_id: str) -> dict:
        return self._rpc({"type": "status", "campaign": campaign_id})

    def results(self, campaign_id: str) -> dict:
        """The raw ``results`` reply: ``{fingerprint: {stats, fingerprint}}``
        for every completed cell (callers verify the stats fingerprints)."""
        return self._rpc({"type": "results", "campaign": campaign_id})

    def cancel(self, campaign_id: str) -> dict:
        return self._rpc({"type": "cancel", "campaign": campaign_id})

    def stats(self) -> dict:
        return self._rpc({"type": "stats"})

    def wait(
        self,
        campaign_id: str,
        poll_interval: float = 0.2,
        timeout: float | None = None,
        resubmit: Callable[[], dict] | None = None,
        on_status: Callable[[dict], None] | None = None,
    ) -> dict:
        """Poll until the campaign reaches a terminal state.

        ``resubmit`` handles the one hole reconnection cannot: a daemon
        restarted *without* a journal (no ``--cache-dir``) forgets the
        campaign; an idempotent resubmission re-creates it under the same
        id and polling continues.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                status = self.status(campaign_id)
            except CampaignError as exc:
                if resubmit is not None and "unknown campaign" in str(exc):
                    resubmit()
                    continue
                raise
            if on_status is not None:
                on_status(status)
            if status.get("state") in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise CampaignError(
                    f"campaign {campaign_id[:12]} still {status.get('state')!r} "
                    f"after {timeout:.0f}s ({status.get('done')}/{status.get('total')})"
                )
            time.sleep(poll_interval)


# ----------------------------------------------------------------- the backend


class CampaignBackend:
    """The campaign daemon as an execution backend (``--campaign host:port``).

    Submits the cells it is handed (idempotently -- re-running the same
    sweep attaches to the live campaign), polls to completion, then
    fetches and re-verifies every result's stats fingerprint, exactly as
    :class:`~repro.experiments.remote.RemoteBackend` does.  Results are
    positionally aligned with the request list and bit-identical to
    :class:`~repro.experiments.backends.SerialBackend`.

    ``fallback="local"`` opts into graceful degradation: when the daemon
    stays unreachable past ``retry_timeout`` (at submit or anywhere in
    the poll loop), the cells run locally through
    :class:`~repro.experiments.backends.SerialBackend` instead of
    failing the sweep.  Local execution produces the same bit-identical
    results by construction -- the daemon is a throughput optimization,
    never a correctness dependency -- so the only cost is speed.  The
    default (``None``) keeps today's fail-loud behavior.
    """

    def __init__(
        self,
        address: str,
        poll_interval: float = 0.2,
        timeout: float | None = None,
        retry_timeout: float = 60.0,
        fallback: str | None = None,
    ) -> None:
        parse_worker(address)  # fail at construction, not mid-sweep
        if fallback not in (None, "local"):
            raise ValueError(
                f"unknown fallback {fallback!r} (supported: 'local', None)"
            )
        self.address = address
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.retry_timeout = retry_timeout
        self.fallback = fallback

    def run(
        self, requests: Sequence[RunRequest], progress: ProgressFn | None = None
    ) -> list[SimStats]:
        requests = list(requests)
        if not requests:
            return []
        try:
            return self._run_campaign(requests, progress)
        except CampaignUnreachableError as exc:
            if self.fallback != "local":
                raise
            if progress is not None:
                progress(
                    f"campaign daemon at {self.address} unreachable ({exc}); "
                    f"falling back to local serial execution"
                )
            return SerialBackend().run(requests, progress)

    def _run_campaign(
        self, requests: list[RunRequest], progress: ProgressFn | None
    ) -> list[SimStats]:
        name = requests[0].experiment
        with CampaignClient(self.address, retry_timeout=self.retry_timeout) as client:
            submitted = client.submit(cells=requests, name=name)
            campaign_id = submitted["campaign"]
            if progress is not None:
                verb = "attached to" if submitted.get("attached") else "submitted"
                progress(
                    f"{name}: {verb} campaign {campaign_id[:12]} "
                    f"({submitted.get('done')}/{submitted.get('total')} cells done)"
                )
            last_done = [submitted.get("done", 0)]

            def on_status(status: dict) -> None:
                if progress is not None and status.get("done") != last_done[0]:
                    last_done[0] = status.get("done")
                    progress(
                        f"{name}: campaign {campaign_id[:12]} "
                        f"{status.get('done')}/{status.get('total')} cells done"
                    )

            status = client.wait(
                campaign_id,
                poll_interval=self.poll_interval,
                timeout=self.timeout,
                resubmit=lambda: client.submit(cells=requests, name=name),
                on_status=on_status,
            )
            if status["state"] != "done":
                raise CellExecutionError(
                    f"campaign {campaign_id[:12]} {status['state']}: "
                    f"{status.get('error') or 'no detail'}"
                )
            payload_map = client.results(campaign_id).get("results", {})
        results: list[SimStats] = []
        for request in requests:
            entry = payload_map.get(request.fingerprint())
            if entry is None:
                raise CellExecutionError(
                    f"{request.describe()}: campaign finished without its result"
                )
            stats = SimStats.from_dict(entry["stats"])
            if stats.fingerprint() != entry.get("fingerprint"):
                raise CellExecutionError(
                    f"{request.describe()}: result fingerprint does not match "
                    "its payload (wire or schema skew)"
                )
            results.append(stats)
        return results
