"""Deterministic fault injection for the remote/campaign tier.

PRs 5-6 made sweep execution a distributed system; this module makes its
failure modes a *reproducible input* instead of an act of the network.  A
:class:`FaultPlan` is a seeded schedule of fault decisions -- connection
drops, worker crashes, injected latency, trace-frame corruption and
truncation -- that the transport and service layers consult at
well-known **sites**:

========================  ====================================================
site                      consulted by
========================  ====================================================
``worker.job``            :class:`~repro.experiments.remote.WorkerAgent`
                          at the top of every served job (crash / drop /
                          delay decisions)
``client.trace``          the job dispatcher of a :class:`~repro.experiments.
                          remote.RemoteBackend` before shipping trace bytes
                          (corrupt / truncate)
``daemon.trace``          the same dispatcher under a :class:`~repro.
                          experiments.campaign.CampaignDaemon`
========================  ====================================================

Determinism is the whole point: every site draws from its own
:class:`random.Random` stream seeded by ``(seed, site)``, so the fault
sequence is a pure function of the plan spec and the sequence of
decisions requested at each site -- independent of thread interleaving
across sites, ``PYTHONHASHSEED``, and wall-clock time.  Two plans built
from the same spec and driven through the same per-site call sequence
fire byte-identical :class:`FaultEvent` lists (the chaos-equivalence
harness asserts exactly this).

Faults are *bounded* by construction: ``max_faults`` caps how many times
each kind may fire, so an aggressive plan goes quiet once its chaos
budget is spent and the system under test can converge.  Every fired
event is appended to :attr:`FaultPlan.events` and reported through the
optional ``log`` callback (the CLI wires this to stderr as
``svw-fault: ...`` lines, which the harness greps for coverage).

Plans parse from compact CLI specs::

    svw-repro worker ... --fault-plan "seed=7,crash_after=3"
    svw-repro campaignd ... --fault-plan "seed=11,corrupt_rate=0.5,truncate_rate=0.2,max_faults=5"

The plan only ever *decides and mutates bytes*; the enclosing layer owns
the mechanics (closing sockets, exiting the process), so a plan can
never fire where no fault path exists.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable

#: Exit code a worker subprocess dies with when a planned ``crash`` fires
#: (distinguishable from real failures by harnesses that respawn it).
CRASH_EXIT_CODE = 86

_INT_FIELDS = ("seed", "drop_after", "crash_after", "kill_after", "max_faults")
_FLOAT_FIELDS = (
    "drop_rate",
    "crash_rate",
    "delay_rate",
    "delay_seconds",
    "corrupt_rate",
    "truncate_rate",
)


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: what, where, and the how-many-th draw it was."""

    kind: str
    site: str
    seq: int
    value: float = 0.0
    detail: str = ""

    def describe(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return f"{self.kind} @{self.site} #{self.seq}{extra}"


class FaultPlan:
    """A seeded, bounded, reproducible schedule of injected faults.

    Deterministic triggers (``drop_after``, ``crash_after``) fire on a
    job count; rate triggers fire on a per-site seeded RNG draw.  Rate
    precedence within one job decision is fixed (crash, then drop, then
    delay) so the draw stream never depends on evaluation order.

    ``max_faults`` is a **per-kind** cap: each kind may fire at most that
    many times, after which its decisions come back clean.  Draws are
    still consumed for capped kinds, so the stream (and therefore every
    later decision) is identical whether or not a cap was hit.

    ``kill_after`` is advisory: the plan never kills a daemon itself (it
    has no process handle); harnesses read it to time an external
    SIGKILL.  It rides in the spec so one string describes the whole
    scenario.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_after: int | None = None,
        crash_after: int | None = None,
        drop_rate: float = 0.0,
        crash_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.0,
        corrupt_rate: float = 0.0,
        truncate_rate: float = 0.0,
        kill_after: int | None = None,
        max_faults: int | None = None,
        log: Callable[[FaultEvent], None] | None = None,
    ) -> None:
        rates = {
            "drop_rate": drop_rate,
            "crash_rate": crash_rate,
            "delay_rate": delay_rate,
            "corrupt_rate": corrupt_rate,
            "truncate_rate": truncate_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if corrupt_rate + truncate_rate > 1.0:
            raise ValueError("corrupt_rate + truncate_rate must be <= 1")
        if crash_rate + drop_rate + delay_rate > 1.0:
            raise ValueError("crash_rate + drop_rate + delay_rate must be <= 1")
        if max_faults is not None and max_faults < 0:
            raise ValueError("max_faults must be >= 0")
        self.seed = seed
        self.drop_after = drop_after
        self.crash_after = crash_after
        self.drop_rate = drop_rate
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.corrupt_rate = corrupt_rate
        self.truncate_rate = truncate_rate
        self.kill_after = kill_after
        self.max_faults = max_faults
        self.log = log
        #: Every fired event, in firing order (appended under the lock).
        self.events: list[FaultEvent] = []
        self._lock = threading.Lock()
        self._streams: dict[str, random.Random] = {}
        self._seq: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    # -- spec round trip -----------------------------------------------------

    @classmethod
    def from_spec(
        cls, spec: str, log: Callable[[FaultEvent], None] | None = None
    ) -> "FaultPlan":
        """Parse ``"seed=7,crash_after=3,corrupt_rate=0.5"`` into a plan.

        Unknown or malformed fields raise :class:`ValueError` naming the
        valid vocabulary -- these surface verbatim through ``--fault-plan``.
        """
        valid = f"(valid names: {', '.join(_INT_FIELDS + _FLOAT_FIELDS)})"
        kwargs: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, raw = item.partition("=")
            name, raw = name.strip(), raw.strip()
            if not sep or not raw:
                raise ValueError(f"fault-plan field {item!r} is not name=value {valid}")
            if name not in _INT_FIELDS + _FLOAT_FIELDS:
                raise ValueError(f"unknown fault-plan field {name!r} {valid}")
            try:
                kwargs[name] = (int if name in _INT_FIELDS else float)(raw)
            except ValueError:
                raise ValueError(
                    f"fault-plan field {name!r} has a non-numeric value {raw!r}"
                ) from None
        seed = kwargs.pop("seed", 0)
        return cls(seed, log=log, **kwargs)

    def to_spec(self) -> str:
        """The compact spec string this plan round-trips through."""
        parts = [f"seed={self.seed}"]
        for name in _INT_FIELDS[1:]:
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        return ",".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FaultPlan({self.to_spec()!r})"

    # -- internals -----------------------------------------------------------

    def _draw(self, site: str) -> tuple[float, random.Random, int]:
        """One uniform draw from ``site``'s stream (callers hold the lock)."""
        stream = self._streams.get(site)
        if stream is None:
            # str seeding hashes via SHA-512, stable across processes and
            # PYTHONHASHSEED -- the property the reproducibility gate needs.
            stream = self._streams[site] = random.Random(f"{self.seed}:{site}")
        seq = self._seq.get(site, 0)
        self._seq[site] = seq + 1
        return stream.random(), stream, seq

    def _fire(
        self, kind: str, site: str, seq: int, value: float = 0.0, detail: str = ""
    ) -> FaultEvent | None:
        """Record one firing unless ``kind`` spent its cap (callers hold
        the lock); capped kinds stay silent but their draw was consumed."""
        fired = self._fired.get(kind, 0)
        if self.max_faults is not None and fired >= self.max_faults:
            return None
        self._fired[kind] = fired + 1
        event = FaultEvent(kind, site, seq, value, detail)
        self.events.append(event)
        if self.log is not None:
            self.log(event)
        return event

    # -- decision points -----------------------------------------------------

    def job_fault(self, site: str, jobs_done: int = 0) -> FaultEvent | None:
        """The fault (if any) to inject into the job starting now.

        ``jobs_done`` drives the deterministic ``*_after`` triggers (fire
        once the agent has completed that many jobs).  Returns at most one
        event; the caller enacts it (``crash`` -> die without cleanup,
        ``drop`` -> sever connections, ``delay`` -> stall ``event.value``
        seconds before serving).
        """
        with self._lock:
            if self.crash_after is not None and jobs_done >= self.crash_after:
                return self._fire("crash", site, self._seq.get(site, 0),
                                  detail=f"after {jobs_done} jobs")
            if self.drop_after is not None and jobs_done >= self.drop_after:
                return self._fire("drop", site, self._seq.get(site, 0),
                                  detail=f"after {jobs_done} jobs")
            if not (self.crash_rate or self.drop_rate or self.delay_rate):
                return None
            draw, _, seq = self._draw(site)
            if draw < self.crash_rate:
                return self._fire("crash", site, seq)
            if draw < self.crash_rate + self.drop_rate:
                return self._fire("drop", site, seq)
            if draw < self.crash_rate + self.drop_rate + self.delay_rate:
                return self._fire("delay", site, seq, value=self.delay_seconds)
            return None

    def mutate_trace(self, site: str, data: bytes) -> bytes | None:
        """Corrupted/truncated trace bytes to ship instead of ``data``,
        or None to ship them untouched.

        Corruption flips one byte (breaking the codec CRC and any pinned
        digest); truncation keeps a strict prefix (the frame stays
        well-formed on the wire -- the *payload* is what's damaged).
        """
        if not data or not (self.corrupt_rate or self.truncate_rate):
            return None
        with self._lock:
            draw, stream, seq = self._draw(site)
            if draw < self.corrupt_rate:
                offset = stream.randrange(len(data))
                if self._fire("corrupt", site, seq, detail=f"byte {offset}") is None:
                    return None
                mutated = bytearray(data)
                mutated[offset] ^= 0xFF
                return bytes(mutated)
            if draw < self.corrupt_rate + self.truncate_rate:
                keep = stream.randrange(len(data))
                if self._fire("truncate", site, seq,
                              detail=f"{keep}/{len(data)} bytes") is None:
                    return None
                return data[:keep]
            return None
