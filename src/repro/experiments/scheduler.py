"""The one cell scheduler: every parallel sweep orders its cells here.

:class:`~repro.experiments.remote.RemoteBackend` (one client, a static
worker list -- also the session loopback fleet behind
:class:`~repro.experiments.pool.BatchRunner`) and
:class:`~repro.experiments.campaign.CampaignDaemon` (many clients, a
registered fleet) both schedule through a :class:`Scheduler`: the cell
table keyed by :meth:`~repro.experiments.spec.RunRequest.fingerprint`
with the submissions waiting on each cell, the dispatch order, attempts,
deadlines, and worker strikes and quarantine.  It holds no sockets,
tasks or locks -- the asyncio :class:`~repro.experiments.remote.
JobDispatcher` drives it from one event loop -- and reads time from an
injected clock, so every decision is testable without a network or a
sleep.  The :class:`CostModel` it orders cells by lives here too.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.spec import RunRequest
from repro.experiments.traces import request_key
from repro.fingerprint import stable_digest
from repro.pipeline.config import MachineConfig, RexMode
from repro.pipeline.stats import SimStats


class CostModel:
    """Relative simulation cost of a sweep cell, learned from timings.

    Tracks an exponential moving average of measured seconds-per-committed-
    instruction per configuration name.  Unmeasured configurations fall
    back to a heuristic: ``RexMode.PERFECT`` machines re-derive the
    program-order value of every marked load at commit, which reliably
    simulates slower than timing-true re-execution, so they weigh heavier.
    Weights are *relative* (measured rates are normalized by the running
    mean), making measured and heuristic cells comparable.

    The model feeds :class:`Scheduler` dispatch order and job deadlines
    only, never results; a wildly wrong model costs balance, not
    correctness.
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
        a cold session's first sweep dispatches on the previous session's
        measured per-config rates instead of the heuristic seed.
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
#: seed each other's dispatch order, which is the point of measuring at all.
_SESSION_COST_MODEL = CostModel()


def session_cost_model() -> CostModel:
    """The process-wide :class:`CostModel` every backend orders its cells
    by unless given its own.  The CLI loads persisted rates into it when
    ``--cache-dir`` names a store, and saves them back on exit."""
    return _SESSION_COST_MODEL


#: Job-deadline derivation for ``job_deadline="auto"``: never strike a
#: worker before the floor, and allow a generous multiple of the cost
#: model's prediction (EMAs wobble; a straggler is *way* past expected).
DEADLINE_FLOOR = 60.0
DEADLINE_FACTOR = 8.0


def derive_deadline(
    cost_model: CostModel | None,
    request: RunRequest,
    setting: float | str | None,
) -> float | None:
    """The per-job execution deadline for one cell, in seconds.

    ``setting`` is the dispatcher's ``job_deadline`` knob: a number is a
    fixed deadline, ``None`` disables deadlines, and ``"auto"`` derives
    one from the session cost model -- ``max(DEADLINE_FLOOR, factor *
    expected)`` when the config has measured timings, and **no deadline**
    when it does not (guessing an absolute bound for an unmeasured config
    would strike healthy workers on cold caches).
    """
    if setting is None:
        return None
    if setting != "auto":
        return float(setting)
    if cost_model is None:
        return None
    expected = cost_model.expected_seconds(request.config, request.n_insts)
    if expected is None:
        return None
    return max(DEADLINE_FLOOR, DEADLINE_FACTOR * expected)


def check_limits(
    max_attempts: int, job_deadline: float | str | None
) -> float | str | None:
    """Validate the dispatch limits every scheduler owner takes; returns
    ``job_deadline`` normalized to ``"auto"``, ``None`` or float seconds."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if job_deadline is None or job_deadline == "auto":
        return job_deadline
    seconds = float(job_deadline)
    if seconds <= 0:
        raise ValueError("job_deadline must be positive (or None/'auto')")
    return seconds


def campaign_id_for(name: str, fingerprints: Sequence[str]) -> str:
    """Submission ids are content addresses of the submission itself, so a
    client that resubmits after a lost connection (or a daemon restart)
    attaches to the same campaign instead of forking a duplicate."""
    return stable_digest({"name": name, "cells": list(fingerprints)})


@dataclass
class Cell:
    """One unique (config, workload, budget) cell across all submissions."""

    fingerprint: str
    request: RunRequest
    #: Dispatch-order key, fixed when the cell is first submitted.
    order: tuple[float, str, str]
    #: Content key of the cell's trace (:func:`~repro.experiments.traces.
    #: request_key`).
    trace_key: str
    status: str = "pending"  # pending | in_flight | done | failed
    submissions: set[str] = field(default_factory=set)
    attempts: int = 0
    error: str | None = None
    stats: SimStats | None = None


@dataclass
class Submission:
    """One sweep submitted to the scheduler: an ordered view over shared
    cells (``requests`` holds one request per unique fingerprint)."""

    id: str
    name: str
    fingerprints: list[str]
    requests: list[RunRequest]
    remaining: set[str] = field(default_factory=set)
    status: str = "running"  # running | done | failed | cancelled
    error: str | None = None


@dataclass
class WorkerHealth:
    """Strike/quarantine record for one worker id.

    Outlives any one registration (keyed by ``host:port``), so a worker
    that fails, drops off the registry, and re-registers carries its
    history with it.
    """

    strikes: int = 0
    quarantines: int = 0
    quarantined_until: float = 0.0  # clock() deadline, 0 = clear


class Scheduler:
    """Cell table, dispatch order, attempts, deadlines and quarantine.

    Not thread-safe: the owner serializes every call (the dispatcher holds
    its asyncio condition around them).
    """

    def __init__(
        self,
        cost_model: CostModel,
        max_attempts: int = 3,
        job_deadline: float | str | None = "auto",
        quarantine_after: int = 3,
        quarantine_base: float = 5.0,
        quarantine_cap: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.job_deadline = check_limits(max_attempts, job_deadline)
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.cost_model = cost_model
        self.max_attempts = max_attempts
        self.quarantine_after = quarantine_after
        self.quarantine_base = quarantine_base
        self.quarantine_cap = quarantine_cap
        self.clock = clock
        self.cells: dict[str, Cell] = {}
        self.pending: set[str] = set()
        #: trace key -> its live cells (pending or in flight).
        self.live: dict[str, int] = {}
        #: Called with a trace key once its last live cell settles.
        self.trace_idle: Callable[[str], None] = lambda key: None
        self.submissions: dict[str, Submission] = {}
        #: worker id -> strike/quarantine history.
        self.health: dict[str, WorkerHealth] = {}
        #: Cells satisfied by the ``stored`` lookup at submit time.
        self.cells_from_store = 0
        #: Cells a submission shared with an already-known one.
        self.cells_deduped = 0

    # -- submissions ---------------------------------------------------------

    def submit(
        self,
        name: str,
        requests: Sequence[RunRequest],
        stored: Callable[[str], SimStats | None] | None = None,
    ) -> tuple[Submission, bool]:
        """Get-or-create the submission for ``requests``; returns it and
        whether an identical submission was already known (ids are content
        addresses, so identical submissions attach).  ``stored`` answers a
        new cell from a result store instead of queueing it."""
        by_fp: dict[str, RunRequest] = {}
        for request in requests:
            by_fp.setdefault(request.fingerprint(), request)
        submission_id = campaign_id_for(name, list(by_fp))
        existing = self.submissions.get(submission_id)
        if existing is not None:
            return existing, True
        submission = Submission(
            id=submission_id,
            name=name,
            fingerprints=list(by_fp),
            requests=list(by_fp.values()),
        )
        for fingerprint, request in by_fp.items():
            cell = self.cells.get(fingerprint)
            if cell is None:
                order = (-self.cost_model.cost(request), request.workload.name, fingerprint)
                cell = Cell(fingerprint, request, order, request_key(request))
                stats = stored(fingerprint) if stored is not None else None
                if stats is not None:
                    cell.status = "done"
                    cell.stats = stats
                    self.cells_from_store += 1
                else:
                    self.pending.add(fingerprint)
                    self.live[cell.trace_key] = self.live.get(cell.trace_key, 0) + 1
                self.cells[fingerprint] = cell
            else:
                self.cells_deduped += 1
            cell.submissions.add(submission_id)
            if cell.status in ("pending", "in_flight"):
                submission.remaining.add(fingerprint)
            elif cell.status == "failed":
                submission.status = "failed"
                submission.error = f"{cell.request.describe()}: {cell.error}"
        if submission.status == "running" and not submission.remaining:
            submission.status = "done"
        self.submissions[submission_id] = submission
        return submission, False

    def cancel(self, submission: Submission) -> None:
        """Cancel a running submission.  Pending cells nobody else waits on
        are dropped; in-flight cells finish (and still reach any store)."""
        if submission.status != "running":
            return
        submission.status = "cancelled"
        self._release(submission)

    def _release(self, submission: Submission) -> None:
        for fingerprint in submission.remaining:
            cell = self.cells.get(fingerprint)
            if cell is None:
                continue
            cell.submissions.discard(submission.id)
            if not cell.submissions and cell.status == "pending":
                self.pending.discard(fingerprint)
                del self.cells[fingerprint]
                self._settle(cell)
        submission.remaining.clear()

    def _settle(self, cell: Cell) -> None:
        """A live cell left the queue for good (done, failed or dropped)."""
        count = self.live.pop(cell.trace_key) - 1
        if count:
            self.live[cell.trace_key] = count
        else:
            self.trace_idle(cell.trace_key)

    def counts(self, submission: Submission) -> tuple[int, int]:
        """``(total, done)`` cells of a submission."""
        total = len(submission.fingerprints)
        if submission.status == "done":
            return total, total
        done = 0
        for fingerprint in submission.fingerprints:
            cell = self.cells.get(fingerprint)
            if cell is not None and cell.status == "done":
                done += 1
        return total, done

    # -- dispatch ------------------------------------------------------------

    def next_cell(self, warm: str | None = None) -> Cell | None:
        """Take the next pending cell (now in flight).

        Dispatch order is longest expected first, by the cost model's
        estimate when the cell was submitted, then by workload name, then
        by fingerprint.  A session cost model's cost depends on the config
        alone, so that order is config-major: it visits every trace once
        per config.  ``warm`` is the trace key of the cell the asking
        worker was last handed; the first pending cell of that trace in
        dispatch order is taken ahead of the rest, so a worker drains the
        trace it holds before fetching another.  With no pending cell of
        ``warm`` (or ``warm=None``) the first pending cell in dispatch
        order is taken.
        """
        if not self.pending:
            return None
        same = [fp for fp in self.pending if self.cells[fp].trace_key == warm]
        fingerprint = min(same or self.pending, key=lambda fp: self.cells[fp].order)
        self.pending.discard(fingerprint)
        cell = self.cells[fingerprint]
        cell.status = "in_flight"
        cell.attempts += 1
        return cell

    def complete(self, cell: Cell, stats: SimStats, worker_id: str) -> list[Submission]:
        """Record a cell's result; a completed cell clears the worker's
        strikes.  Returns the submissions that it finished."""
        health = self.health.get(worker_id)
        if health is not None:
            health.strikes = 0
        cell.status = "done"
        cell.stats = stats
        self._settle(cell)
        finished: list[Submission] = []
        for submission_id in cell.submissions:
            submission = self.submissions[submission_id]
            submission.remaining.discard(cell.fingerprint)
            if not submission.remaining and submission.status == "running":
                submission.status = "done"
                finished.append(submission)
        return finished

    def fail(self, cell: Cell, message: str) -> list[Submission]:
        """Mark a cell failed, fail every running submission waiting on it,
        and release those submissions' claims on their other cells."""
        self._settle(cell)
        cell.status = "failed"
        cell.error = message
        self.pending.discard(cell.fingerprint)
        failed: list[Submission] = []
        for submission_id in list(cell.submissions):
            submission = self.submissions[submission_id]
            if submission.status != "running":
                continue
            submission.status = "failed"
            submission.error = f"{cell.request.describe()}: {message}"
            submission.remaining.discard(cell.fingerprint)
            self._release(submission)
            failed.append(submission)
        return failed

    def lost(
        self, cell: Cell, worker_id: str, reason: str
    ) -> tuple[list[Submission], float | None]:
        """A worker died with ``cell`` in flight: strike the worker, then
        re-queue the cell, or fail it once it has used ``max_attempts``.
        A cell no submission waits on any more is dropped instead.
        Returns the failed submissions and the quarantine pause (if this
        strike tripped one)."""
        pause = self.strike(worker_id)
        failed: list[Submission] = []
        if cell.status == "in_flight":
            if not cell.submissions:
                del self.cells[cell.fingerprint]
                self._settle(cell)
            elif cell.attempts >= self.max_attempts:
                failed = self.fail(
                    cell,
                    f"worker lost {cell.attempts} times (last: {worker_id}: {reason})",
                )
            else:
                cell.status = "pending"
                self.pending.add(cell.fingerprint)
        return failed, pause

    def deadline(self, request: RunRequest) -> float | None:
        """The execution deadline for one job of ``request``, in seconds."""
        return derive_deadline(self.cost_model, request, self.job_deadline)

    # -- worker health -------------------------------------------------------

    def strike(self, worker_id: str) -> float | None:
        """Score one failure against a worker.

        Returns the quarantine pause in seconds when this strike tripped
        the threshold (``quarantine_after`` failures without a completed
        job in between), else None.  Each successive quarantine doubles
        the pause up to ``quarantine_cap``.
        """
        health = self.health.setdefault(worker_id, WorkerHealth())
        health.strikes += 1
        if health.strikes < self.quarantine_after:
            return None
        pause = min(self.quarantine_base * (2 ** health.quarantines), self.quarantine_cap)
        health.quarantined_until = self.clock() + pause
        health.quarantines += 1
        health.strikes = 0
        return pause

    def quarantined_for(self, worker_id: str) -> float:
        """Seconds of quarantine a worker has left (0 when admitted)."""
        health = self.health.get(worker_id)
        if health is None:
            return 0.0
        return max(0.0, health.quarantined_until - self.clock())
