"""Simulation statistics.

All load-percentage statistics follow the paper's convention: percentages
of *retired* (committed) loads.  Wrong-path work (squashed instructions)
consumes bandwidth in the timing model but does not appear in the rates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.fingerprint import stable_digest


@dataclass(slots=True)
class SimStats:
    """Counters collected by one :class:`~repro.pipeline.processor.Processor` run."""

    config_name: str = ""
    workload: str = ""

    cycles: int = 0
    committed: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0

    # -- re-execution accounting (committed loads only) -------------------------
    #: Loads marked for potential re-execution by the active optimizations.
    marked_loads: int = 0
    #: Marked loads that actually re-executed (accessed the data cache).
    reexecuted_loads: int = 0
    #: Marked loads the SVW filter excused.
    filtered_loads: int = 0
    #: Re-executions that mismatched and triggered a flush.
    rex_failures: int = 0
    #: SVW-only mode: positive tests that triggered flushes.
    svw_only_flushes: int = 0

    # -- optimization-specific breakdowns ------------------------------------------
    #: SSQ: committed loads that accessed the FSQ.
    fsq_loads: int = 0
    #: SSQ: committed stores allocated FSQ entries.
    fsq_stores: int = 0
    #: RLE: committed loads eliminated by load reuse.
    eliminated_reuse: int = 0
    #: RLE: committed loads eliminated by speculative memory bypassing.
    eliminated_bypass: int = 0
    #: RLE: eliminated loads that were squash reuse.
    squash_reuse_loads: int = 0
    #: Committed loads that received a store-forwarded value.
    forwarded_loads: int = 0

    # -- speculation events ------------------------------------------------------------
    branch_mispredicts: int = 0
    btb_misfetches: int = 0
    ordering_flushes: int = 0  # baseline LQ-search violations
    flushes: int = 0  # all pipeline squashes
    ssn_drains: int = 0
    store_set_waits: int = 0

    # -- structural-hazard visibility -----------------------------------------------------
    #: Cycles the re-execution pipe stalled waiting for the shared D$ port.
    rex_port_stalls: int = 0
    #: Cycles store commit stalled behind incomplete older load re-execution.
    serialization_stalls: int = 0
    dispatch_stalls: dict[str, int] = field(default_factory=dict)

    # -- scheduler observability (excluded from the fingerprint) ----------------------
    #: Idle-cycle jumps the skip-ahead scheduler took.
    skip_jumps: int = 0
    #: Total cycles those jumps covered (the simulated-but-not-stepped work).
    skipped_cycles: int = 0
    #: What ended each jump: wake-up cause -> jump count.  Causes are the
    #: candidates of ``Processor._next_event_cycle`` (completion, commit,
    #: rex_port, rex_inflight, fetch_resume, invalidation, watchdog).
    wakeup_causes: dict[str, int] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def reexec_rate(self) -> float:
        """Fraction of retired loads that re-executed (the figures' top panels)."""
        if not self.committed_loads:
            return 0.0
        return self.reexecuted_loads / self.committed_loads

    @property
    def marked_rate(self) -> float:
        if not self.committed_loads:
            return 0.0
        return self.marked_loads / self.committed_loads

    @property
    def elimination_rate(self) -> float:
        if not self.committed_loads:
            return 0.0
        return (self.eliminated_reuse + self.eliminated_bypass) / self.committed_loads

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form; round-trips through :meth:`from_dict`.

        Counter mappings are emitted key-sorted so the encoding is
        canonical regardless of increment order -- a run that crossed the
        remote wire (whose JSON frames sort keys) serializes byte-identical
        to the in-process run.  Fingerprints never depended on the order
        (:func:`~repro.fingerprint.stable_digest` canonicalizes again).
        """
        payload = asdict(self)
        payload["dispatch_stalls"] = dict(sorted(self.dispatch_stalls.items()))
        payload["wakeup_causes"] = dict(sorted(self.wakeup_causes.items()))
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SimStats":
        payload = dict(payload)
        payload["dispatch_stalls"] = dict(payload.get("dispatch_stalls") or {})
        payload["wakeup_causes"] = dict(payload.get("wakeup_causes") or {})
        return cls(**payload)  # type: ignore[arg-type]

    #: Counters that describe the *scheduler*, not the simulated machine:
    #: they differ between ``skip_ahead`` on and off (and between skip
    #: implementations) while the architectural outcome is identical, so
    #: the fingerprint -- whose contract is "bit-identical machine
    #: behaviour" across backends, PRs, and snapshots -- must not see them.
    OBSERVABILITY_FIELDS = frozenset(
        {"skip_jumps", "skipped_cycles", "wakeup_causes"}
    )

    def fingerprint(self) -> str:
        """Stable digest of every architectural counter (used by equivalence
        tests and the result cache to assert bit-identical simulation
        outcomes).  Scheduler-observability counters are excluded -- see
        :data:`OBSERVABILITY_FIELDS`."""
        payload = self.to_dict()
        for name in self.OBSERVABILITY_FIELDS:
            payload.pop(name, None)
        return stable_digest(payload)

    def summary(self) -> str:
        lines = [
            f"{self.config_name} on {self.workload}:",
            f"  cycles={self.cycles} committed={self.committed} IPC={self.ipc:.3f}",
            f"  loads={self.committed_loads} marked={self.marked_rate:.1%} "
            f"re-executed={self.reexec_rate:.1%} filtered={self.filtered_loads}",
            f"  flushes={self.flushes} (rex={self.rex_failures}, "
            f"ordering={self.ordering_flushes}, mispredicts={self.branch_mispredicts})",
        ]
        if self.skip_jumps:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.wakeup_causes.items())
            )
            lines.append(
                f"  skip-ahead: {self.skipped_cycles} cycles in "
                f"{self.skip_jumps} jumps (wake-ups: {causes})"
            )
        return "\n".join(lines)


def speedup(base: SimStats, other: SimStats) -> float:
    """Percent IPC improvement of ``other`` over ``base``."""
    if base.ipc == 0:
        return 0.0
    return (other.ipc / base.ipc - 1.0) * 100.0
