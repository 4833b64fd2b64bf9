"""Campaign control plane: sweeps as a service.

:class:`~repro.experiments.remote.RemoteBackend` fans *one* sweep from
*one* client across a static worker list.  This module is the layer
above it: a long-lived **campaign daemon** (``svw-repro campaignd``)
that takes sweep submissions from many concurrent clients, schedules
their union across a dynamic worker fleet, and survives restarts on
either side of the wire.  Both run on the same scheduling core -- the
:class:`~repro.experiments.scheduler.Scheduler` and the asyncio
:class:`~repro.experiments.remote.JobDispatcher` -- so the daemon adds
only what is its own: the worker registry, the client API, the central
store and the journals.

Architecture
------------

Everything speaks the remote wire format (length-prefixed ``J`` JSON and
``Z`` zlib-compressed trace frames; nothing pickled ever crosses a
socket):

- **Clients** connect with a ``hello`` and issue JSON requests:
  ``submit`` (a named list of cell payloads), ``status``, ``results``,
  ``cancel``, and ``stats`` (fleet/scheduler introspection).  The sync
  :class:`CampaignClient` wraps this, and :class:`CampaignBackend` makes
  the daemon the fourth execution backend -- bit-identical to
  :class:`~repro.experiments.backends.SerialBackend` because the daemon
  runs the same codec bytes through the same worker agents and the client
  re-verifies every stats fingerprint.
- **Workers** are ordinary ``svw-repro worker`` agents that additionally
  ``register``: they dial the daemon, advertise their port, then
  heartbeat; the daemon dials *back* with the ordinary job protocol,
  one job connection per worker.  A closed registry link or a missed
  heartbeat deregisters the worker and re-queues its in-flight cells.
  Workers reconnect through daemon restarts on their own.

Scheduling is **cell-granular across campaigns**: every submission's
cells land in the scheduler's one table keyed by the
:meth:`~repro.experiments.spec.RunRequest.fingerprint` content address,
so two users sweeping overlapping grids pay for the union once -- an
overlapping cell is simulated exactly once and its result fans out to
every waiting campaign.  Dispatch is longest-expected-job-first under
the persisted :class:`~repro.experiments.scheduler.CostModel`, except that a
worker first drains the pending cells of the trace it was last handed,
so it fetches each trace about once rather than once per config.

Durability: with ``--cache-dir`` the daemon anchors a central
:class:`~repro.experiments.store.ResultStore`, the campaigns' one result
store (workers keep none; completed cells are persisted there the moment
they arrive, and satisfied from there at submit time), journals each
campaign under ``<cache-dir>/campaigns/``, and persists the cost model.
A journal is one JSON object (schema 3) naming the submission and its
state, written like every other file in the tree -- whole, through
:func:`~repro.ioutil.atomic_write_text` -- at submit and again at its
terminal state.  A reader sees a snapshot
entirely or not at all; a kill -9 mid-write leaves at most a stale
``.*.tmp`` beside it, which ``svw-repro fsck`` reports and ``--fix``
deletes.  A restarted daemon replays the journals: finished cells hit
the store, unfinished ones re-enter the queue, and reconnecting clients
(or idempotent re-submissions -- campaign ids are content addresses of
the submission) resume without recomputing anything.

Resilience: per-job execution deadlines derived from the cost model
strike stragglers and re-dispatch their cells; repeated strikes
quarantine a worker with exponential-backoff readmission; a failed
central-store write is reported and costs only durability, never the
campaign; a seeded :class:`~repro.experiments.faults.FaultPlan` can be
injected to prove all of it deterministically (the ``chaos-equivalence``
CI gate).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.backends import CellExecutionError, ProgressFn, SerialBackend
from repro.experiments.faults import FaultPlan
from repro.experiments.remote import (
    PROTOCOL_VERSION,
    JobDispatcher,
    RemoteProtocolError,
    WorkerLink,
    parse_worker,
    recv_json,
    recv_json_async,
    send_json,
    send_json_async,
    verified_stats,
)
from repro.experiments.scheduler import (
    Cell,
    Scheduler,
    Submission,
    campaign_id_for,
    session_cost_model,
)
from repro.experiments.spec import ExperimentSpec, RunRequest
from repro.experiments.store import ResultStore
from repro.experiments.traces import TraceProvider
from repro.ioutil import ScrubReport, Verdict, atomic_write_text, scrub
from repro.pipeline.stats import SimStats
from repro.workloads.trace_cache import TraceCache

#: Journal payload layout version.  Schema 3 is one JSON object per
#: campaign, rewritten whole at each state change.
JOURNAL_SCHEMA = 3

#: Campaign states a client can observe.
TERMINAL_STATES = ("done", "failed", "cancelled")


class CampaignError(RuntimeError):
    """A campaign request failed (unknown id, malformed submission, ...)."""


class CampaignUnreachableError(CampaignError):
    """No daemon answered within ``retry_timeout`` -- a connection-level
    outage, not a request error, so callers may degrade gracefully
    (``CampaignBackend(fallback="local")`` runs the cells serially)."""


def spec_campaign_id(spec: ExperimentSpec) -> str:
    """The campaign id a daemon will assign this spec's submission --
    computable offline, so ``svw-repro status/cancel`` can address a
    campaign by re-deriving the id from the same spec arguments."""
    fingerprints = dict.fromkeys(request.fingerprint() for request in spec.cells())
    return campaign_id_for(spec.name, list(fingerprints))


# ------------------------------------------------------------- journal reading


def _read_journal(path: Path) -> dict | None:
    """One journal's payload (``name``/``status``/``error``/``cells``), or
    ``None`` when the file is unreadable or not a schema-3 campaign
    record -- replay skips such journals, stale schemas included."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("record") != "campaign"
        or payload.get("schema") != JOURNAL_SCHEMA
    ):
        return None
    return payload


def scrub_journals(journal_dir: str | Path, fix: bool = False) -> ScrubReport:
    """Scrub the campaign journal directory by the one rule of
    :func:`~repro.ioutil.scrub`: a ``*.jsonl`` journal that cannot name
    its campaign (unreadable, or of another schema: replay skips it, so
    it resumes nothing) is corrupt."""
    return scrub(journal_dir, _judge_journal, fix)


def _judge_journal(path: Path) -> Verdict:
    if path.suffix != ".jsonl":
        return None
    return "clean" if _read_journal(path) is not None else "corrupt"


# ------------------------------------------------------------------ the daemon


class CampaignDaemon:
    """The long-lived sweep service (``svw-repro campaignd``).

    Runs an asyncio server on a background thread (so tests and the CLI
    share one code path); the scheduler and dispatcher live on its event
    loop.  ``cache_dir`` makes the daemon durable: results in a central
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
        progress: Callable[[str], None] | None = None,
        job_deadline: float | str | None = "auto",
        quarantine_after: int = 3,
        quarantine_base: float = 5.0,
        quarantine_cap: float = 300.0,
        faults: FaultPlan | None = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else session_cost_model()
        self._scheduler = Scheduler(
            self.cost_model,
            max_attempts=max_attempts,
            job_deadline=job_deadline,
            quarantine_after=quarantine_after,
            quarantine_base=quarantine_base,
            quarantine_cap=quarantine_cap,
        )
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
        self.heartbeat_timeout = heartbeat_timeout
        self.progress = progress
        self._dispatcher = JobDispatcher(
            self._scheduler,
            TraceProvider(cache=trace_cache),
            connect_timeout=connect_timeout,
            faults=faults,
            trace_site="daemon.trace",
            note=self._note,
            settled=self._settled,
        )
        self._conn_writers: set = set()
        self._workers: dict[str, WorkerLink] = {}
        self._loop = None
        self._stop = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def cells_simulated(self) -> int:
        """Results received from workers (each one is a dispatched cell;
        zero of these after a warm restart is the resume guarantee)."""
        return self._dispatcher.cells_simulated

    @property
    def cells_from_store(self) -> int:
        """Cells satisfied straight from the central store (including every
        journal-replayed cell a restarted daemon finds already done)."""
        return self._scheduler.cells_from_store

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(f"campaignd: {message}")

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
        self._note(f"listening on {self.address}")
        try:
            async with server:
                await self._stop.wait()
        finally:
            # Abort every open connection (jobs, registries, clients) so
            # their handler tasks unwind through the normal ConnectionError
            # paths before the loop tears down, instead of being cancelled
            # mid-await by asyncio.run's cleanup.
            for worker in list(self._workers.values()):
                worker.abort()
            for writer in list(self._conn_writers):
                writer.transport.abort()
            closing = asyncio.create_task(self._dispatcher.close())
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            await asyncio.wait(pending, timeout=5.0)
            if not closing.done():
                closing.cancel()
            if self.store is not None:
                self.cost_model.save(self.store.cost_model_path)

    # -- connection demux ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._conn_writers.add(writer)
        try:
            first = await recv_json_async(reader)
            kind = first.get("type")
            if kind == "register":
                await self._serve_worker(first, reader, writer)
            elif kind == "hello":
                if first.get("protocol") != PROTOCOL_VERSION:
                    raise RemoteProtocolError(
                        f"client speaks protocol {first.get('protocol')!r}, "
                        f"need {PROTOCOL_VERSION}"
                    )
                await send_json_async(
                    writer,
                    {
                        "type": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "service": "campaignd",
                    },
                )
                await self._serve_client(reader, writer)
            else:
                await send_json_async(
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
            writer.close()

    # -- worker registry -----------------------------------------------------

    async def _serve_worker(self, register: dict, reader, writer) -> None:
        import asyncio

        if register.get("protocol") != PROTOCOL_VERSION:
            await send_json_async(
                writer,
                {"type": "error", "message": f"need protocol {PROTOCOL_VERSION}"},
            )
            return
        peer = writer.get_extra_info("peername")
        host = peer[0] if peer else "127.0.0.1"
        try:
            host, port = parse_worker(f"{host}:{register['port']}")
        except (KeyError, ValueError) as exc:
            await send_json_async(writer, {"type": "error", "message": f"bad register: {exc}"})
            return
        remaining = self._scheduler.quarantined_for(f"{host}:{port}")
        if remaining > 0:
            # Refuse, don't drop: the worker's registry loop hears the
            # reason, backs off exponentially, and retries -- which IS
            # the readmission path once the quarantine lapses.
            await send_json_async(
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
        worker = WorkerLink(id=f"{host}:{port}", host=host, port=port)
        work = self._dispatcher.work
        async with work:
            old = self._workers.get(worker.id)
            if old is not None:
                # Replaced (worker restarted faster than its heartbeat
                # lapsed): retire the stale entry, its tasks exit on the
                # dead flag / aborted sockets.
                old.dead = True
                work.notify_all()
            self._workers[worker.id] = worker
        if old is not None:
            old.abort()
        self._dispatcher.spawn(worker)
        await send_json_async(
            writer,
            {"type": "registered", "worker": worker.id, "protocol": PROTOCOL_VERSION},
        )
        self._note(f"worker {worker.id} registered")
        try:
            while not worker.dead:
                try:
                    message = await asyncio.wait_for(
                        recv_json_async(reader), self.heartbeat_timeout
                    )
                except asyncio.TimeoutError:
                    break  # heartbeats stopped: the worker is gone
                kind = message.get("type")
                if kind != "heartbeat":
                    raise RemoteProtocolError(f"unexpected registry frame {kind!r}")
        except (ConnectionError, OSError, RemoteProtocolError):
            pass
        finally:
            await self._remove_worker(worker)

    async def _remove_worker(self, worker: WorkerLink) -> None:
        import asyncio

        async with self._dispatcher.work:
            worker.dead = True
            if self._workers.get(worker.id) is worker:
                del self._workers[worker.id]
            self._dispatcher.work.notify_all()
        worker.abort()
        if worker.task is not None:
            await asyncio.gather(worker.task, return_exceptions=True)

    # -- cell outcomes -------------------------------------------------------

    def _settled(self, cell: Cell, ended: list[Submission]) -> None:
        """Persist what the dispatcher just settled: a finished cell's
        stats to the central store, then the journal of every campaign
        it ended."""
        if cell.status == "done" and self.store is not None:
            try:
                self.store.save(cell.request, cell.stats)
            except (OSError, ValueError) as exc:
                # The store is a cache: its loss costs a recompute after a
                # restart, never this campaign -- the result still ships
                # from memory.
                self._note(f"store write failed for {cell.request.describe()} ({exc})")
        for campaign in ended:
            self._write_journal(campaign)

    # -- client API ----------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        while True:
            message = await recv_json_async(reader)
            kind = message.get("type")
            try:
                if kind == "submit":
                    reply = await self._handle_submit(message)
                elif kind == "status":
                    reply = self._handle_status(message)
                elif kind == "results":
                    reply = self._handle_results(message)
                elif kind == "cancel":
                    reply = await self._handle_cancel(message)
                elif kind == "stats":
                    reply = self._handle_stats()
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
            await send_json_async(writer, reply)

    async def _handle_submit(self, message: dict) -> dict:
        if self._dispatcher.closing:
            raise CampaignError("daemon is shutting down")
        cells_payload = message.get("cells")
        if not isinstance(cells_payload, list):
            raise CampaignError("submit needs a cells list of run-request payloads")
        try:
            requests = [RunRequest.from_payload(p) for p in cells_payload]
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"bad cell payload: {exc}") from exc
        if not requests:
            raise CampaignError("submission has no cells")
        name = str(message.get("name") or requests[0].experiment)
        campaign, attached = await self._register_campaign(name, requests)
        if not attached:
            self._write_journal(campaign)
            self._note(
                f"campaign {campaign.id[:12]} ({name}) submitted, "
                f"{len(campaign.fingerprints)} cell(s)"
            )
        total, done = self._scheduler.counts(campaign)
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
    ) -> tuple[Submission, bool]:
        """Get-or-create the campaign for a submission (id is content-
        addressed, so identical submissions attach); new cells already in
        the central store are answered from it."""
        stored = self.store.load_stats if self.store is not None else None
        async with self._dispatcher.work:
            campaign, attached = self._scheduler.submit(name, requests, stored)
            self._dispatcher.work.notify_all()
        return campaign, attached

    def _campaign_for(self, message: dict) -> Submission:
        campaign_id = message.get("campaign")
        campaign = (
            self._scheduler.submissions.get(campaign_id)
            if isinstance(campaign_id, str)
            else None
        )
        if campaign is None:
            raise CampaignError(f"unknown campaign {str(campaign_id)[:16]!r}")
        return campaign

    def _handle_status(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        total, done = self._scheduler.counts(campaign)
        return {
            "type": "status",
            "campaign": campaign.id,
            "name": campaign.name,
            "state": campaign.status,
            "total": total,
            "done": done,
            "error": campaign.error,
        }

    def _handle_results(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        results: dict[str, dict] = {}
        for fingerprint in campaign.fingerprints:
            cell = self._scheduler.cells.get(fingerprint)
            stats = cell.stats if cell is not None else None
            if stats is None and self.store is not None:
                stats = self.store.load_stats(fingerprint)
            if stats is not None:
                results[fingerprint] = {
                    "stats": stats.to_dict(),
                    "fingerprint": stats.fingerprint(),
                }
        return {**self._handle_status(message), "type": "results", "results": results}

    async def _handle_cancel(self, message: dict) -> dict:
        campaign = self._campaign_for(message)
        async with self._dispatcher.work:
            self._scheduler.cancel(campaign)
            self._dispatcher.work.notify_all()
        self._write_journal(campaign)
        return {"type": "cancelled", "campaign": campaign.id, "state": campaign.status}

    def _handle_stats(self) -> dict:
        scheduler = self._scheduler
        now = scheduler.clock()
        workers = [
            {
                "id": worker.id,
                "in_flight": worker.in_flight,
                "jobs_done": worker.jobs_done,
                "strikes": (
                    scheduler.health[worker.id].strikes
                    if worker.id in scheduler.health
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
            for worker_id, health in sorted(scheduler.health.items())
            if health.quarantined_until > now
        ]
        return {
            "type": "stats",
            "workers": sorted(workers, key=lambda w: w["id"]),
            "quarantined": quarantined,
            "campaigns": len(scheduler.submissions),
            "cells_pending": len(scheduler.pending),
            "cells_in_flight": sum(
                1 for cell in scheduler.cells.values() if cell.status == "in_flight"
            ),
            "cells_simulated": self.cells_simulated,
            "cells_from_store": scheduler.cells_from_store,
            "cells_deduped": scheduler.cells_deduped,
            "stragglers": self._dispatcher.stragglers,
            "traces_shipped": self._dispatcher.traces_shipped,
            "traces_held": self._dispatcher.provider.held,
        }

    # -- journal -------------------------------------------------------------
    #
    # Schema 3: one JSON object per campaign -- the submission (name and
    # cells) plus its status and error -- rewritten whole and atomically
    # at submit and at each terminal state, so a reader never sees part
    # of one.  Per-cell completion is never journaled: the store recheck
    # at replay is its single source of truth.

    def _write_journal(self, campaign: Submission) -> None:
        """Snapshot a campaign's journal (best-effort: journal loss
        degrades resume, never correctness)."""
        if self.journal_dir is None:
            return
        payload = {
            "record": "campaign",
            "schema": JOURNAL_SCHEMA,
            "campaign": campaign.id,
            "name": campaign.name,
            "status": campaign.status,
            "error": campaign.error,
            "cells": [request.to_payload() for request in campaign.requests],
        }
        try:
            atomic_write_text(
                self.journal_dir / f"{campaign.id}.jsonl",
                json.dumps(payload, sort_keys=True) + "\n",
            )
        except OSError as exc:
            self._note(f"journal write failed for campaign {campaign.id[:12]} ({exc})")

    async def _load_journals(self) -> None:
        """Replay persisted campaigns (daemon restart): finished cells are
        satisfied from the store, unfinished ones re-enter the queue.

        Only ``*.jsonl`` files are journals, so a snapshot's stale
        ``.*.tmp`` is never read.
        """
        assert self.journal_dir is not None
        for path in sorted(self.journal_dir.glob("*.jsonl")):
            payload = _read_journal(path)
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
                if not attached:
                    total, done = self._scheduler.counts(campaign)
                    self._note(
                        f"resumed campaign {campaign.id[:12]} ({name}): "
                        f"{done}/{total} cells already done"
                    )
            else:
                # Terminal campaigns come back queryable but inert.
                fingerprints = [r.fingerprint() for r in requests]
                campaign = Submission(
                    id=campaign_id_for(name, fingerprints),
                    name=name,
                    fingerprints=fingerprints,
                    requests=requests,
                    status=status,
                    error=payload.get("error"),
                )
                self._scheduler.submissions.setdefault(campaign.id, campaign)


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

    def submit(self, cells: Sequence[RunRequest], name: str | None = None) -> dict:
        """Submit a sweep's cells as campaign ``name`` (default: the first
        cell's experiment); returns the daemon's ``submitted`` reply
        (``campaign`` id, ``total``/``done`` counts, ``attached`` flag)."""
        message: dict = {
            "type": "submit",
            "cells": [request.to_payload() for request in cells],
        }
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
        if not isinstance(payload_map, dict):
            raise CellExecutionError(
                f"campaign {campaign_id[:12]}: results reply is a "
                f"{type(payload_map).__name__}, not a map of cells"
            )
        results: list[SimStats] = []
        for request in requests:
            entry = payload_map.get(request.fingerprint())
            if entry is None:
                raise CellExecutionError(
                    f"{request.describe()}: campaign finished without its result"
                )
            # Cells that differ only in config name share one entry.
            results.append(request.stamp(verified_stats(request, entry)))
        return results
