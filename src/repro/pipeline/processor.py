"""The cycle-driven out-of-order processor model.

Per-cycle stage order (backwards through the pipe, standard practice so
that results produced this cycle are visible downstream next cycle, except
wakeup/select which is same-cycle for back-to-back execution):

1. **complete** -- finish executions scheduled for this cycle, wake
   dependents, resolve store addresses (conventional LQ search happens
   here), release branch redirects;
2. **commit** -- in-order retirement from the ROB head; stores arbitrate
   for the single data-cache read/write port with priority over load
   re-execution; re-execution verdicts (flush on mismatch) act here;
3. **re-execute** -- the in-order pre-commit re-execution pipe: SVW stage
   (SSBF update for stores, filter test for marked loads), then data-cache
   re-access for loads that must re-execute, using whatever port capacity
   store commit left over;
4. **issue** -- age-ordered select over ready instructions subject to
   per-class issue bandwidth, cache banks, and the FSQ port;
5. **dispatch** -- in-order entry into the window subject to ROB/IQ/LQ/SQ
   occupancy, branch redirects, FSQ allocation stalls, and SSN wrap drains.

The functional story runs alongside the timing story: loads compute values
at issue from whatever stores their LSU variant lets them see (possibly
stale -- that is the point), re-execution recomputes the program-order
value, and commit repairs any divergence by flushing.  A run can therefore
be checked against the golden functional execution, and the test suite
does so for every configuration.

Memory.  A cell's state is O(window + data footprint), never O(trace
length).  Only entries the re-execution stage will retire are queued on
``rex_queue`` (REEXECUTE and SVW_ONLY; ``+PERFECT`` verifies each load at
commit and queues nothing), the conventional LQ index drops a word once
its last load leaves, and the ROB, ``inflight_by_seq``, ``store_words``
and the uncommitted-load queue empty as instructions commit;
``tests/pipeline/test_cell_memory.py`` checks all of them after every
configuration's run.  What grows with the run is the caches and the
committed memory image, i.e. the footprint.

Performance notes.  This loop is the hot path of every experiment, so it
is written for interpreter throughput while staying *bit-identical* to the
straightforward formulation (``tests/pipeline/test_skip_ahead.py`` and the
golden-equivalence suite enforce this):

- the trace is a :class:`~repro.isa.coltrace.ColumnTrace`: the dispatch
  loop reads the flat per-field columns by dynamic seq and copies the few
  static facts an in-flight entry needs into
  :class:`~repro.pipeline.inflight.InFlight`;
  no ``DynInst`` objects exist on this path;
- per-instruction facts (kind, latency, issue class, touched words,
  integration signature) come from :class:`~repro.isa.inst.TraceMeta`,
  precomputed once per trace instead of per cycle;
- each stage method unpacks one tuple of per-run constants (containers,
  columns, configuration scalars, hooks) bound in ``__init__`` instead of
  re-reading a dozen attributes per call, and avoids rebuilding per-cycle
  containers (issue slots are a flat list copy, bank arbitration is a
  bitmask);
- the LSU contract is seven hooks (:mod:`repro.lsu.base`).  The five a
  variant may leave at the base no-op (``on_load_dispatch``,
  ``admit_store``, ``on_store_resolved``, ``on_store_forwardable`` and
  ``on_leave``) are bound once per run, None when the variant keeps the
  default; an issuing load makes one LSU call, ``execute_load``, which
  executes it or names the store it must wait for;
- enum members are read once, into module constants or per-run booleans:
  CPython 3.11 does not cache an enum-member read, which costs several
  times a plain attribute read;
- the cycle loop counts front-end and branch stalls itself (most cycles
  that cannot dispatch are those) and hands ``_do_complete`` the bucket it
  popped; ``_wake`` pushes ready entries itself, and dispatch appends
  register waiters inline and writes ``fetch_seq`` back once per call;
- :class:`~repro.pipeline.inflight.InFlight` is allocated about 1.2
  times per committed instruction, so ``__init__`` writes only the fields
  some stage can read before setting them;
- an idle-cycle *skip-ahead* scheduler detects cycles in which no
  architectural state changed and jumps the clock to the next cycle at
  which anything can happen (a scheduled completion, the commit-depth
  horizon of the ROB head, a re-execution port release, a front-end
  redirect, an invalidation tick, or the watchdog), replicating the
  stall-counter increments the skipped cycles would have made.

Measured and rejected on CPython 3.11 (do not rebuild):

- per-kind ``InFlight`` subclasses with class-level defaults (0.90x and
  0.92x: the attribute sites turn polymorphic and lose their caches);
- a per-ROB-slot column window (three per-slot column reads cost about
  twice three slotted attributes; resetting a slot saves little);
- parking loads the SQ CAM defers until a store writing the blocked
  word is done (``figures`` cells 15.24 -> 15.10 s, median of 3 pairs),
  alone or under per-issue-class ready heaps (15.33 -> 15.22 s; fuzz
  matrix 1.60 -> 1.61 s).  Both were exact and both are below what
  perfbench resolves: issue deferrals per committed instruction on
  ``figures`` are 0.216 slot, 0.215 SQ-CAM, 0.123 bank and 0.006 FSQ,
  each one cheap heap pop;
- an ``InFlight`` constructor taking ``addr``, ``size`` and
  ``store_value`` (1.007x total over the 240 ``figures`` cells in
  ``benchmarks/ab_cells.py``, against 1.006x for an A/A pass).

Measured and not settled: a ready heap of bare seqs resolved through
``inflight_by_seq`` at each pop read 1.017x and 1.020x total in two
passes of the same tool (0.989x over 45 cells in an earlier
measurement), below what perfbench resolves (README *Measured rejects*).

``benchmarks/ab_cells.py`` splits ``Processor.run`` per stage, parent
against change, to measure the next candidate against.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush

from repro.core.ssn import SSNState
from repro.core.svw import SVWEngine
from repro.deps.spct import SPCT
from repro.deps.storesets import StoreSets
from repro.frontend.btb import BTB
from repro.frontend.direction import HybridPredictor
from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import KIND_BRANCH, KIND_LOAD, KIND_STORE
from repro.lsu.base import LoadStoreUnit, store_word_value
from repro.lsu.conventional import ConventionalLSU
from repro.lsu.nlq import NonAssociativeLQ
from repro.lsu.ssq import SpeculativeSQ
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.memimg import MemoryImage
from repro.pipeline.config import LSUKind, MachineConfig, RexMode
from repro.pipeline.inflight import InFlight, RexState
from repro.pipeline.stats import SimStats
from repro.rle.integration import IntegrationTable

# RexState members hoisted to module level: the re-execution pipe tests
# these identities once per queue entry per cycle.
_NOT_NEEDED = RexState.NOT_NEEDED
_PENDING = RexState.PENDING
_IN_FLIGHT = RexState.IN_FLIGHT
_DONE_OK = RexState.DONE_OK
_FILTERED = RexState.FILTERED
_FAILED = RexState.FAILED
_SVW_FLUSH = RexState.SVW_FLUSH

#: Terminal states that let an entry retire from the re-execution queue.
_REX_RETIRED = (_DONE_OK, _FILTERED, _FAILED, _SVW_FLUSH)

class SimulationError(RuntimeError):
    """The simulation reached an inconsistent or deadlocked state."""


class Processor:
    """One machine configuration executing one trace."""

    __slots__ = (
        # configuration / trace
        "config",
        "trace",
        "meta",
        "warmup",
        "stats",
        # functional state
        "committed_memory",
        "_golden",
        # substrates
        "hierarchy",
        "predictor",
        "btb",
        "store_sets",
        "spct",
        "svw",
        "ssn",
        "it",
        "lsu",
        # dynamic state
        "cycle",
        "fetch_seq",
        "fetch_resume",
        "fetch_blocker",
        "drain_wait",
        "rob",
        "inflight_by_seq",
        "iq_occ",
        "lq_occ",
        "sq_occ",
        "reg_occ",
        "rex_queue",
        "store_words",
        "_warmup_cycle",
        "_ready",
        "_completes",
        "_rex_port_busy_until",
        "_uncommitted_loads",
        "_svw_retried",
        "_last_commit_cycle",
        "_committed_total",
        # skip-ahead scheduler
        "_skip_ahead",
        "_worked",
        "_stall_note",
        "_wake_cause",
        # per-run constants
        "_trace_len",
        "_commit_depth",
        "_uses_rex",
        "_rex_reexecute",
        "_rex_perfect",
        "_rex_svw_only",
        "_rex_active",
        # stage constants, bound once per run and unpacked per stage call
        "_dispatch_consts",
        "_issue_consts",
        "_commit_consts",
        "_rex_consts",
        # devirtualized hooks (bound methods, or None when the LSU variant
        # inherits the no-op default)
        "_on_load_dispatch",
        "_admit_store",
        "_on_leave",
        "_on_store_resolved",
        "_on_store_forwardable",
        "_execute_load",
        "_load_access",
    )

    def __init__(
        self,
        config: MachineConfig,
        trace: ColumnTrace,
        validate: bool = False,
        warmup: int = 0,
        skip_ahead: bool = True,
    ) -> None:
        """Args:
        config: The machine to model.
        trace: The dynamic instruction stream to execute.
        validate: Check every committed load value against the golden
            functional execution (slower; used by the test suite).
        warmup: Number of committed instructions to exclude from the
            statistics (predictor/cache warm-up, as in the paper's
            sampling methodology).
        skip_ahead: Jump the clock over provably idle cycles.  Results
            are bit-identical either way (the golden-equivalence tests
            assert this); disabling it exists for those tests and for
            debugging cycle-by-cycle traces.
        """
        self.config = config
        self.trace = trace
        self.meta = trace.meta()
        self.warmup = min(warmup, max(0, len(trace) - 1))
        self._warmup_cycle = 0
        self.stats = SimStats(config_name=config.name, workload=trace.name)

        # Functional state.
        self.committed_memory = MemoryImage(trace.initial_memory)
        self._golden = trace.golden_loads() if validate else None

        # Substrates.
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = HybridPredictor(config.predictor_entries)
        self.btb = BTB(config.btb_entries)
        self.store_sets: StoreSets | None = StoreSets() if config.store_sets else None
        self.spct = SPCT()
        self.svw: SVWEngine | None = SVWEngine(config.svw) if config.svw else None
        self.ssn: SSNState = self.svw.ssn if self.svw else SSNState(None)
        self.it: IntegrationTable | None = (
            IntegrationTable(config.it_entries, config.it_assoc) if config.rle else None
        )
        if self.svw is not None and self.it is not None:
            self.svw.on_drain.append(self.it.flash_clear)

        # Dynamic state.
        self.cycle = 0
        self.fetch_seq = 0
        self.fetch_resume = 0
        self.fetch_blocker: InFlight | None = None
        self.drain_wait = False
        self.rob: deque[InFlight] = deque()
        self.inflight_by_seq: dict[int, InFlight] = {}
        self.iq_occ = 0
        self.lq_occ = 0
        self.sq_occ = 0
        self.reg_occ = 0
        #: Ready entries as ``(seq, entry)``.  A squashed entry stays heaped
        #: until popped; its refetched twin has the same seq, and
        #: ``InFlight.__lt__`` pops the squashed one first.
        self._ready: list[tuple[int, InFlight]] = []
        #: Completion buckets by cycle.  Every key lies in the future: the
        #: cycle loop pops the current cycle's bucket and every latency is
        #: at least one cycle.
        self._completes: dict[int, list[InFlight]] = {}
        self.rex_queue: deque[InFlight] = deque()
        #: The shared D$ read/write port is occupied for the full duration
        #: of a re-execution access (it is a retirement-side port, not a
        #: pipelined execution port) -- this is what turns load re-execution
        #: into the paper's store-commit critical loop.
        self._rex_port_busy_until = 0
        #: In-flight stores indexed by 4-byte word (dispatch order).
        self.store_words: dict[int, list[InFlight]] = {}
        self.lsu: LoadStoreUnit = {
            LSUKind.CONVENTIONAL: ConventionalLSU,
            LSUKind.NLQ: NonAssociativeLQ,
            LSUKind.SSQ: SpeculativeSQ,
        }[config.lsu](self)
        self._uncommitted_loads: deque[int] = deque()
        #: Seqs already flushed once by `_svw_only_flush`; a repeat positive
        #: filter test on a refetched load is a false positive (see the
        #: SVW_ONLY decision in `_do_rex`) and must not flush again.  A seq
        #: leaves the set at its refetched copy's first SVW-stage test.
        self._svw_retried: set[int] = set()
        self._last_commit_cycle = 0
        self._committed_total = 0

        # Skip-ahead scheduler state.
        self._skip_ahead = skip_ahead
        self._worked = False
        self._stall_note: str | None = None
        #: Which `_next_event_cycle` candidate ended the most recent
        #: quiescent stretch (feeds `SimStats.wakeup_causes`).
        self._wake_cause = "watchdog"

        # Per-run constants.  Enum members are read here, once: on CPython
        # 3.11 a member read costs several plain attribute reads.
        self._trace_len = len(trace)
        self._commit_depth = config.commit_depth
        self._uses_rex = config.uses_rex
        rex_mode = config.rex_mode
        self._rex_reexecute = rex_mode is RexMode.REEXECUTE
        self._rex_perfect = rex_mode is RexMode.PERFECT
        self._rex_svw_only = rex_mode is RexMode.SVW_ONLY
        #: The modes whose re-execution stage drains ``rex_queue``; only
        #: they queue entries (``+PERFECT`` verifies at commit instead).
        self._rex_active = self._rex_reexecute or self._rex_svw_only
        # Devirtualize the per-instruction LSU hooks: variants that keep
        # the base no-op pay nothing per event, overriding variants get a
        # pre-bound method (no attribute chase in the loops).
        lsu = self.lsu
        lsu_cls = type(lsu)

        def _hook(name: str):
            return None if getattr(lsu_cls, name) is getattr(LoadStoreUnit, name) else getattr(lsu, name)

        self._on_load_dispatch = _hook("on_load_dispatch")
        self._admit_store = _hook("admit_store")
        self._on_leave = _hook("on_leave")
        self._on_store_resolved = _hook("on_store_resolved")
        self._on_store_forwardable = _hook("on_store_forwardable")
        self._execute_load = lsu.execute_load
        self._load_access = self.hierarchy.load_access
        #: Per-cycle issue-bandwidth budgets indexed by ``int(OpClass)``
        #: (IMUL and NOP draw from the IALU budget via
        #: :data:`~repro.isa.ops.ISSUE_CLASS_BY_OP`, so their own indices
        #: stay zero).
        slot_template = [
            config.int_issue,
            0,
            config.fp_issue,
            config.load_issue,
            config.store_issue,
            config.branch_issue,
            0,
        ]

        # Stage constants: the containers, flat trace columns (plain lists,
        # built once per trace and shared by every configuration replaying
        # it), configuration scalars and hooks each stage reads.  None is
        # ever rebound, so each stage call unpacks one tuple instead of
        # re-reading a dozen attributes.  Each tuple's order is the order
        # its stage method unpacks it in.
        hot = trace.hot()
        l1d = config.hierarchy.l1d
        self._dispatch_consts = (
            self._trace_len,
            config.width,
            config.rob_size,
            config.iq_size,
            config.lq_size,
            config.sq_size,
            config.num_regs,
            self.meta.kind,
            hot.dst_reg,
            hot.pc,
            hot.taken,
            hot.addr,
            hot.size,
            hot.store_value,
            hot.base_seq,
            hot.store_data_seq,
            hot.srcs,
            self.rob,
            self.inflight_by_seq,
            self._ready,
            self._admit_store,
            self.ssn,
            self.svw is not None,
        )
        self._issue_consts = (
            self._ready,
            self.meta.kind,
            self.meta.issue_class,
            self.meta.latency,
            l1d.line_bytes,
            l1d.banks - 1,
            self._execute_load,
            self._load_access,
            self.svw.svw_after_forward if self.svw is not None else None,
            config.load_latency - l1d.latency,
            self._completes,
            slot_template,
            config.fsq_ports,
        )
        self._commit_consts = (
            self.rob,
            config.width,
            self._commit_depth,
            config.store_retire_ports,
            self._uses_rex,
            self._rex_perfect,
            self.inflight_by_seq,
            self.warmup,
        )
        self._rex_consts = (
            self.rex_queue,
            self.svw,
            self.svw is not None and not self.svw.config.speculative_updates,
            config.width,
            self._rex_svw_only,
            self._uncommitted_loads,
            self._load_access,
        )

    # ------------------------------------------------------------------ helpers

    def _schedule_completion(self, entry: InFlight, when: int) -> None:
        entry.complete_cycle = when
        bucket = self._completes.get(when)
        if bucket is None:
            self._completes[when] = [entry]
        else:
            bucket.append(entry)

    def _wake(self, producer: InFlight) -> None:
        """Release ``producer``'s waiters (the caller checked it has some).

        A register waiter whose last operand arrived joins the ready heap
        (an integrated load completes instead); a store-data waiter whose
        address is known becomes done.
        """
        waiters = producer.waiters
        producer.waiters = None
        for role, waiter in waiters:
            if waiter.squashed:
                continue
            if role:
                # Store data arrived; the store is fully done once its
                # address exists too (data_pending blocked it until now).
                waiter.data_pending = 0
                if waiter.resolved:
                    waiter.done = True
                    if self._on_store_forwardable is not None:
                        self._on_store_forwardable(waiter)
                    if waiter.waiters is not None:
                        self._wake(waiter)
                continue
            pending = waiter.pending_srcs - 1
            waiter.pending_srcs = pending
            if pending == 0:
                if waiter.eliminated:
                    # Integrated loads "complete" as soon as their value does.
                    self._schedule_completion(waiter, self.cycle + 1)
                else:
                    heappush(self._ready, (waiter.seq, waiter))

    def _program_order_value(self, load: InFlight) -> int:
        """The architecturally-correct value at the load's position.

        Valid whenever all older instructions are complete (true at the
        re-execution frontier and at commit): every older store is either
        still in ``store_words`` or already merged into committed memory.
        """
        load_seq = load.seq
        store_words = self.store_words
        committed_read = self.committed_memory.read
        value = 0
        for shift, word in enumerate(self.meta.words[load_seq]):
            word_value = None
            stores = store_words.get(word)
            if stores:
                for store in reversed(stores):
                    if store.seq < load_seq and not store.squashed:
                        word_value = store_word_value(store, word)
                        break
            if word_value is None:
                word_value = committed_read(word, 4)
            value |= word_value << (32 * shift)
        if load.size == 4:
            value &= 0xFFFF_FFFF
        return value

    def _note_stall(self, reason: str) -> None:
        """Count a dispatch-stall cycle (and remember it for skip-ahead)."""
        self._stall_note = reason
        stalls = self.stats.dispatch_stalls
        stalls[reason] = stalls.get(reason, 0) + 1

    # ------------------------------------------------------------------ main loop

    def run(self) -> SimStats:
        """Simulate until the whole trace commits; returns statistics.

        The cyclic-garbage collector is suspended for the duration: the
        loop allocates heavily (one :class:`InFlight` plus several tuples
        per dispatched instruction) but creates no reference cycles, so
        the periodic generation-0 scans are pure overhead: entries point
        only at younger entries (a producer lists its waiters) and no
        substrate, the LSU included, holds the processor.  A processor --
        finished or stopped by a :class:`SimulationError` -- is freed by
        refcounting alone.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self) -> SimStats:
        total = self._trace_len
        watchdog = self.config.watchdog_cycles
        inval = self.config.invalidation_interval
        skip = self._skip_ahead
        rex_active = self._rex_active
        # Containers are bound once in __init__ and never rebound, so the
        # per-cycle stage gates below can hold direct references.  Stage
        # methods are bound once too: the gates run every simulated cycle.
        completes = self._completes
        ready = self._ready
        rex_queue = self.rex_queue
        rob = self.rob
        commit_depth = self._commit_depth
        store_retire_ports = self.config.store_retire_ports
        do_complete = self._do_complete
        do_commit = self._do_commit
        do_rex = self._do_rex
        do_issue = self._do_issue
        do_dispatch = self._do_dispatch
        # Only commit swaps the stats object (at the warm-up boundary).
        stats = self.stats
        rex0 = ser0 = 0
        while self._committed_total < total:
            cycle = self.cycle + 1
            self.cycle = cycle
            if skip:
                self._worked = False
                self._stall_note = None
                rex0 = stats.rex_port_stalls
                ser0 = stats.serialization_stalls
            # Stage gates: each stage's own early-out precondition is
            # evaluated here so no-op stages cost a test, not a call.
            if cycle in completes:
                do_complete(completes.pop(cycle))
            port_budget = store_retire_ports
            if rob:
                head = rob[0]
                if head.done and cycle >= head.complete_cycle + commit_depth:
                    port_budget = do_commit()
                    stats = self.stats
            if rex_active and rex_queue and rex_queue[0].done:
                do_rex(port_budget)
            if ready:
                do_issue()
            # Most cycles that cannot dispatch wait on a front-end redirect
            # or an unresolved mispredicted branch; count those here.
            if cycle < self.fetch_resume:
                self._stall_note = "frontend"
                stalls = stats.dispatch_stalls
                stalls["frontend"] = stalls.get("frontend", 0) + 1
            elif self.fetch_blocker is not None:
                self._stall_note = "branch"
                stalls = stats.dispatch_stalls
                stalls["branch"] = stalls.get("branch", 0) + 1
            else:
                do_dispatch()
            if inval and cycle % inval == 0:
                self._inject_invalidation()
                self._worked = True
            if cycle - self._last_commit_cycle > watchdog:
                head = self.rob[0] if self.rob else None
                raise SimulationError(
                    f"no commit for {watchdog} cycles at cycle {cycle}; "
                    f"head={head!r} fetch_seq={self.fetch_seq} "
                    f"rex_queue={len(self.rex_queue)} drain_wait={self.drain_wait}"
                )
            if skip and not self._worked:
                # Nothing changed this cycle except stall counters, so
                # every cycle up to the next event is an exact replay:
                # account the counters and jump the clock.
                limit = self._next_event_cycle(watchdog, inval) - 1
                n = limit - cycle
                if n > 0:
                    delta = stats.rex_port_stalls - rex0
                    if delta:
                        stats.rex_port_stalls += delta * n
                    delta = stats.serialization_stalls - ser0
                    if delta:
                        stats.serialization_stalls += delta * n
                    note = self._stall_note
                    if note is not None:
                        stats.dispatch_stalls[note] += n
                    stats.skip_jumps += 1
                    stats.skipped_cycles += n
                    cause = self._wake_cause
                    causes = stats.wakeup_causes
                    causes[cause] = causes.get(cause, 0) + 1
                    self.cycle = limit
        self.stats.cycles = self.cycle - self._warmup_cycle
        if self.svw is not None:
            self.stats.ssn_drains += self.svw.ssn.drains
        return self.stats

    def _next_event_cycle(self, watchdog: int, inval: int) -> int:
        """Earliest future cycle at which a quiescent machine can change.

        Sound over-approximation: returning a cycle *earlier* than the
        next real event is always safe (the intervening cycles replay as
        quiescent), so every time-gated condition in the stage functions
        must contribute a candidate here, and does:

        - scheduled completions (the earliest ``_completes`` bucket);
        - the ROB head's commit-depth horizon;
        - release of the shared re-execution D$ port;
        - in-flight re-execution accesses finishing;
        - the front-end redirect resuming;
        - the next synthetic-invalidation tick;
        - the watchdog deadline (also the deadlock backstop).
        """
        cycle = self.cycle
        nxt = self._last_commit_cycle + watchdog + 1
        cause = "watchdog"
        completes = self._completes
        if completes:
            # Every bucket lies in the future (see ``__init__``), so the
            # earliest one is the next completion event.
            first = min(completes)
            if first < nxt:
                nxt = first
                cause = "completion"
        rob = self.rob
        if rob:
            head = rob[0]
            if head.done:
                horizon = head.complete_cycle + self._commit_depth
                if cycle < horizon < nxt:
                    nxt = horizon
                    cause = "commit"
        busy = self._rex_port_busy_until
        if cycle < busy < nxt:
            nxt = busy
            cause = "rex_port"
        if self._rex_reexecute:
            # IN_FLIGHT entries only exist ahead of the first incomplete
            # entry (the re-execution pipe is in-order), so the scan is
            # short and bounded.
            for entry in self.rex_queue:
                if not entry.done:
                    break
                if entry.rex_state is _IN_FLIGHT:
                    done_cycle = entry.rex_done_cycle
                    if cycle < done_cycle < nxt:
                        nxt = done_cycle
                        cause = "rex_inflight"
        resume = self.fetch_resume
        if cycle < resume < nxt:
            nxt = resume
            cause = "fetch_resume"
        if inval:
            tick = cycle - cycle % inval + inval
            if tick < nxt:
                nxt = tick
                cause = "invalidation"
        self._wake_cause = cause
        return nxt

    # ------------------------------------------------------------------ complete

    def _do_complete(self, events: list[InFlight]) -> None:
        """Finish this cycle's executions (``events``, never empty)."""
        self._worked = True
        on_store_resolved = self._on_store_resolved
        for entry in events:
            if entry.squashed:
                continue
            kind = entry.kind
            if kind == KIND_STORE:
                # Address generation finished (STA); data may still be
                # outstanding (STD) -- the store is done when both are.
                entry.resolved = True
                if on_store_resolved is not None:
                    victim = on_store_resolved(entry)
                    if victim is not None and not victim.squashed:
                        self._ordering_flush(victim, entry)
                if entry.data_pending:
                    continue  # the data producer's wake-up finishes it
                entry.done = True
                if self._on_store_forwardable is not None:
                    self._on_store_forwardable(entry)
            else:
                entry.done = True
                if kind == KIND_BRANCH and entry.mispredicted and self.fetch_blocker is entry:
                    self.fetch_resume = max(
                        self.fetch_resume, self.cycle + self.config.mispredict_penalty
                    )
                    self.fetch_blocker = None
            if entry.waiters is not None:
                self._wake(entry)

    # ------------------------------------------------------------------ commit

    def _do_commit(self) -> int:
        """Commit up to ``width``; returns leftover D$ port capacity."""
        (rob, width, commit_depth, port_budget, uses_rex, rex_perfect,
         inflight_by_seq, warmup) = self._commit_consts
        cycle = self.cycle
        stats = self.stats
        committed_total = self._committed_total
        commits = 0
        branches = 0
        # ``committed``/``committed_branches`` are batched into locals and
        # flushed once per call (and once more at the warm-up swap, so each
        # increment lands in the stats object that was current when its
        # instruction retired).
        flushed = flushed_branches = 0
        flush_after = False
        while rob and commits < width:
            head = rob[0]
            if not head.done or cycle < head.complete_cycle + commit_depth:
                break
            kind = head.kind
            if kind == KIND_LOAD:
                if uses_rex:
                    state = head.rex_state
                    if state is _PENDING or state is _IN_FLIGHT:
                        if rex_perfect:
                            self._perfect_verify(head)
                            state = head.rex_state
                        else:
                            stats.serialization_stalls += 1
                            break
                    if state is _FAILED:
                        flush_after = True
                    elif state is _SVW_FLUSH:
                        self._svw_only_flush(head)
                        break
                self._commit_load(head, stats)
            elif kind == KIND_STORE:
                if uses_rex and head.rex_state is not _DONE_OK:
                    # Store may not commit until it (and all older loads)
                    # cleared the re-execution pipe -- the critical loop.
                    if rex_perfect:
                        head.rex_state = _DONE_OK
                    else:
                        stats.serialization_stalls += 1
                        break
                if port_budget <= 0:
                    break
                if cycle < self._rex_port_busy_until:
                    # A load re-execution holds the shared D$ port.
                    stats.rex_port_stalls += 1
                    break
                port_budget -= 1
                self._commit_store(head, stats)
            elif kind == KIND_BRANCH:
                branches += 1
            # Retire the head (inline: this runs once per committed
            # instruction).
            rob.popleft()
            del inflight_by_seq[head.seq]
            committed_total += 1
            if head.dst_reg >= 0:
                self.reg_occ -= 1
            commits += 1
            if committed_total == warmup:
                # Measurement begins: credit the batched counts to the
                # warm-up stats object before it is swapped for a fresh one.
                stats.committed += commits - flushed
                stats.committed_branches += branches - flushed_branches
                flushed, flushed_branches = commits, branches
                self._begin_measurement()
                stats = self.stats
            if flush_after:
                # Re-execution mismatch: the load committed corrected;
                # flush everything younger.
                self._rex_failure_flush(head)
                break
        if commits:
            self._committed_total = committed_total
            stats.committed += commits - flushed
            stats.committed_branches += branches - flushed_branches
            self._last_commit_cycle = cycle
            self._worked = True
        return port_budget

    def _begin_measurement(self) -> None:
        """Discard warm-up statistics; measurement starts now."""
        self.stats = SimStats(
            config_name=self.config.name, workload=self.trace.name
        )
        self.lsu.stats = self.stats
        self._warmup_cycle = self.cycle
        if self.svw is not None:
            self.stats.ssn_drains = -self.svw.ssn.drains

    def _commit_load(self, head: InFlight, stats: SimStats) -> None:
        stats.committed_loads += 1
        self.lq_occ -= 1
        uncommitted = self._uncommitted_loads
        if uncommitted and uncommitted[0] == head.seq:
            uncommitted.popleft()
        if head.marked:
            stats.marked_loads += 1
            state = head.rex_state
            if state is _FILTERED:
                stats.filtered_loads += 1
            elif self._rex_reexecute or self._rex_perfect:
                stats.reexecuted_loads += 1
            if state is _FAILED:
                stats.rex_failures += 1
                head.exec_value = head.rex_value  # corrected at commit
        if head.fsq:
            stats.fsq_loads += 1
        if head.eliminated:
            if head.elim_bypass:
                stats.eliminated_bypass += 1
            else:
                stats.eliminated_reuse += 1
            if head.squash_reuse:
                stats.squash_reuse_loads += 1
        if self._on_leave is not None:
            self._on_leave(head)
        if self._golden is not None:
            expected = self._golden[head.seq]
            if head.exec_value != expected:
                raise SimulationError(
                    f"load seq={head.seq} committed {head.exec_value:#x}, "
                    f"golden value is {expected:#x} (config {self.config.name})"
                )

    def _commit_store(self, head: InFlight, stats: SimStats) -> None:
        stats.committed_stores += 1
        self.sq_occ -= 1
        addr = head.addr
        # The store writes through the single store-retirement port: a
        # miss allocates the line, but the write buffer hides the fill, so
        # only residency changes (the port is held for this one cycle).
        self._load_access(addr)
        self.committed_memory.write(addr, head.store_value, head.size)
        self.ssn.retire_store()
        self.spct.record(addr, head.size, head.pc)
        store_words = self.store_words
        for word in self.meta.words[head.seq]:
            stores = store_words.get(word)
            if stores:
                if stores[0] is head:
                    stores.pop(0)
                else:  # pragma: no cover - defensive
                    stores.remove(head)
                if not stores:
                    del store_words[word]
        if self.store_sets is not None:
            self.store_sets.store_done(head.pc, head.seq)
        if head.fsq:
            stats.fsq_stores += 1
        if self._on_leave is not None:
            self._on_leave(head)

    def _perfect_verify(self, load: InFlight) -> None:
        """Ideal re-execution: zero latency, infinite bandwidth."""
        if not load.marked:
            load.rex_state = _DONE_OK
            return
        load.rex_value = self._program_order_value(load)
        load.rex_state = (
            _DONE_OK if load.rex_value == load.exec_value else _FAILED
        )

    # ------------------------------------------------------------------ re-execution

    def _do_rex(self, port_budget: int) -> None:
        """Advance the in-order re-execution pipe (the caller checked that
        re-execution is on and the front entry is done)."""
        (queue, svw, atomic, budget, svw_only, uncommitted_loads,
         load_access) = self._rex_consts
        cycle = self.cycle
        qlen = len(queue)
        index = 0
        processed = 0
        while index < qlen and processed < budget:
            entry = queue[index]
            if not entry.done:
                break
            if entry.kind == KIND_STORE:
                if entry.rex_state is _NOT_NEEDED:
                    if (
                        atomic
                        and uncommitted_loads
                        and uncommitted_loads[0] < entry.seq
                    ):
                        # Atomic updates: the store (and everything behind
                        # it in the SVW stage) waits until every older load
                        # has retired -- the elongated serialization the
                        # paper warns about.
                        break
                    if svw is not None:
                        svw.record_store(entry.addr, entry.size, entry.ssn)
                    entry.rex_state = _DONE_OK
                    self._worked = True
                index += 1
                processed += 1
                continue
            # Loads.
            state = entry.rex_state
            if state is _PENDING:
                if not entry.marked:
                    if svw_only and self._svw_retried:
                        # A refetched copy that is not marked passes the
                        # SVW stage untested; its seq is done all the same.
                        self._svw_retried.discard(entry.seq)
                    entry.rex_state = _DONE_OK
                    self._worked = True
                else:
                    if svw is not None:
                        must = svw.must_reexecute(entry.addr, entry.size, entry.svw)
                    else:
                        must = True
                    if svw_only:
                        # Config validation guarantees svw is present here.
                        if self._svw_retried and entry.seq in self._svw_retried:
                            # A load refetched by `_svw_only_flush` restarted
                            # fetch at its own seq: everything older has
                            # committed, so the re-issued access read committed
                            # memory and is architecturally correct.  A repeat
                            # positive test is stale SSBF state (an aliasing
                            # store's entry, or an NLQ-SM invalidation stamped
                            # ``SSN_RENAME + 1``) and flushing again would
                            # livelock.  The seq leaves the set at this first
                            # test, positive or not, so the set stays bounded.
                            self._svw_retried.discard(entry.seq)
                            must = False
                        entry.rex_state = _SVW_FLUSH if must else _FILTERED
                        self._worked = True
                    elif not must:
                        entry.rex_state = _FILTERED
                        self._worked = True
                    else:
                        # Needs the shared data-cache port for the full access.
                        if port_budget <= 0 or cycle < self._rex_port_busy_until:
                            self.stats.rex_port_stalls += 1
                            break  # in-order start
                        entry.rex_state = _IN_FLIGHT
                        # A re-executing load reads an address recently
                        # loaded or stored, so it almost always hits; a
                        # miss costs what a load's would.
                        access = load_access(entry.addr)
                        # RLE's elongated pipe (register-file address/value
                        # reads) adds latency but does not hold the D$ port.
                        extra = 2 if entry.eliminated else 0
                        entry.rex_done_cycle = cycle + access + extra
                        self._rex_port_busy_until = cycle + access
                        self._worked = True
            if entry.rex_state is _IN_FLIGHT:
                if cycle >= entry.rex_done_cycle:
                    entry.rex_value = self._program_order_value(entry)
                    entry.rex_state = (
                        _DONE_OK
                        if entry.rex_value == entry.exec_value
                        else _FAILED
                    )
                    self._worked = True
                else:
                    index += 1
                    continue  # access still in flight; younger entries may start
            index += 1
            processed += 1
        # Retire verified entries from the front, in order.
        while queue and queue[0].rex_state in _REX_RETIRED:
            queue.popleft()
            self._worked = True

    # ------------------------------------------------------------------ issue

    def _do_issue(self) -> None:
        (ready, m_kind, m_iclass, m_latency, line_bytes, bank_mask,
         execute_load, load_access, svw_after_forward,
         load_base_latency, completes, slot_template, fsq_budget) = self._issue_consts
        cycle = self.cycle
        slots = slot_template.copy()
        banks_used = 0
        issued = 0
        deferred: list[tuple[int, InFlight]] = []
        while ready:
            item = heappop(ready)
            entry = item[1]
            if entry.squashed:
                # An entry joins the heap once, when it is ready and not
                # issued (deferral re-pushes it unchanged), so a squashed
                # entry is the only kind to drop.
                continue
            seq = entry.seq
            iclass = m_iclass[seq]
            if slots[iclass] <= 0:
                deferred.append(item)
                continue
            kind = m_kind[seq]
            if kind == KIND_LOAD:
                # FSQ port contract (see lsu/base.py): a load is charged
                # against the FSQ port iff its LSU set ``entry.fsq``.
                uses_fsq = entry.fsq
                if uses_fsq and fsq_budget <= 0:
                    deferred.append(item)
                    continue
                bank_bit = 1 << ((entry.addr // line_bytes) & bank_mask)
                if banks_used & bank_bit:
                    deferred.append(item)
                    continue
                # Issue the load (inlined: once per issued load).
                if execute_load(entry) is not None:
                    # SQ CAM hit on a store without data: replay next cycle.
                    deferred.append(item)
                    continue
                banks_used |= bank_bit
                if uses_fsq:
                    fsq_budget -= 1
                entry.issued = True
                if svw_after_forward is not None and entry.forwarded_ssn > entry.svw:
                    # ``+UPD``: forwarding may shrink the vulnerability window.
                    entry.svw = svw_after_forward(entry.svw, entry.forwarded_ssn)
                # Timing: the configured load-to-use latency covers the
                # L1D + SQ path; anything beyond the L1 adds the
                # hierarchy's miss penalty.
                when = cycle + load_base_latency + load_access(entry.addr)
            else:
                # A store's latency is its address generation.
                entry.issued = True
                when = cycle + m_latency[seq]
            issued += 1
            slots[iclass] -= 1
            # _schedule_completion inlined (once per issued instruction).
            entry.complete_cycle = when
            bucket = completes.get(when)
            if bucket is None:
                completes[when] = [entry]
            else:
                bucket.append(entry)
        if issued:
            self.iq_occ -= issued
            self._worked = True
        for item in deferred:
            heappush(ready, item)

    # ------------------------------------------------------------------ dispatch

    def _do_dispatch(self) -> None:
        """Dispatch up to ``width`` instructions in program order.

        The caller has already counted the cycles in which a front-end
        redirect or an unresolved mispredicted branch blocks fetch.
        """
        if self.drain_wait:
            if self.rob:
                self._note_stall("drain")
                return
            self.svw.drain()
            self.drain_wait = False
            self._worked = True
        (trace_len, width, rob_size, iq_size, lq_size, sq_size, num_regs,
         m_kind, m_dst, m_pc, m_taken, m_addr, m_size, m_sval, m_base, m_sdata,
         m_srcs, rob, inflight_by_seq, ready, admit_store, ssn,
         svw_present) = self._dispatch_consts
        # Written back once per call: nothing the loop calls reads them.
        fetch_seq = self.fetch_seq
        dispatched = 0
        taken_branch = False
        stall = None
        while fetch_seq < trace_len and dispatched < width:
            if len(rob) >= rob_size:
                stall = "rob"
                break
            if self.iq_occ >= iq_size:
                stall = "iq"
                break
            kind = m_kind[fetch_seq]
            if kind == KIND_LOAD:
                if self.lq_occ >= lq_size:
                    stall = "lq"
                    break
            elif kind == KIND_STORE and self.sq_occ >= sq_size:
                stall = "sq"
                break
            dst_reg = m_dst[fetch_seq]
            if dst_reg >= 0 and self.reg_occ >= num_regs:
                stall = "regs"
                break
            # The in-flight entry is the instruction's *view*: the static
            # facts the stage loops and LSU hooks read are copied out of
            # the flat columns here, once per dispatch.
            if kind == KIND_STORE:
                if svw_present and ssn.wrap_pending:
                    # Entering drain_wait is a state transition the skip-ahead
                    # scheduler has no wake-up candidate for (with an empty ROB
                    # the drain would fire on the very next cycle), so the
                    # cycle must count as worked.
                    self.drain_wait = True
                    self._worked = True
                    stall = "drain"
                    break
                entry = InFlight(fetch_seq, m_pc[fetch_seq], kind, dst_reg)
                entry.addr = m_addr[fetch_seq]
                entry.size = m_size[fetch_seq]
                entry.store_value = m_sval[fetch_seq]
                if admit_store is not None and not admit_store(entry):
                    stall = "fsq"
                    break
                # Stores split address (issue-gating) from data
                # (commit/forwarding-gating) operands.
                producer = inflight_by_seq.get(m_base[fetch_seq])
                if producer is not None and not producer.done:
                    entry.pending_srcs = 1
                    producer.add_waiter(entry)
                producer = inflight_by_seq.get(m_sdata[fetch_seq])
                if producer is not None and not producer.done:
                    entry.data_pending = 1
                    producer.add_waiter(entry, role=1)
                self._dispatch_store(entry)
            else:
                taken = kind == KIND_BRANCH and m_taken[fetch_seq]
                if taken:
                    if taken_branch:
                        break  # can fetch past one taken branch per cycle
                    taken_branch = True
                entry = InFlight(fetch_seq, m_pc[fetch_seq], kind, dst_reg)
                if kind == KIND_LOAD:
                    entry.addr = m_addr[fetch_seq]
                    entry.size = m_size[fetch_seq]
                # Register dataflow (waiters appended inline: this runs
                # once per source operand).
                for src in m_srcs[fetch_seq]:
                    producer = inflight_by_seq.get(src)
                    if producer is not None and not producer.done:
                        entry.pending_srcs += 1
                        waiters = producer.waiters
                        if waiters is None:
                            producer.waiters = [(0, entry)]
                        else:
                            waiters.append((0, entry))
                if kind == KIND_LOAD:
                    self._dispatch_load(entry)
                else:
                    if kind == KIND_BRANCH:
                        self._dispatch_branch(entry, taken)
                    self.iq_occ += 1
            # Place the entry into the window.  Only an integrated load
            # is issued at dispatch, and it never enters the ready heap.
            rob.append(entry)
            inflight_by_seq[fetch_seq] = entry
            if dst_reg >= 0:
                self.reg_occ += 1
            if entry.pending_srcs == 0 and not entry.issued:
                heappush(ready, (fetch_seq, entry))
            dispatched += 1
            fetch_seq += 1
            if entry.mispredicted:
                break
        self.fetch_seq = fetch_seq
        if stall is not None:
            self._note_stall(stall)
        if dispatched:
            self._worked = True

    def _dispatch_branch(self, entry: InFlight, taken: bool) -> None:
        correct = self.predictor.predict_and_update(entry.pc, taken)
        btb_hit = self.btb.lookup_and_update(entry.pc) if taken else True
        if not correct:
            entry.mispredicted = True
            self.stats.branch_mispredicts += 1
            self.fetch_blocker = entry
        elif not btb_hit:
            self.stats.btb_misfetches += 1
            self.fetch_resume = max(
                self.fetch_resume, self.cycle + self.config.btb_penalty
            )

    def _dispatch_load(self, entry: InFlight) -> None:
        self.lq_occ += 1
        self._uncommitted_loads.append(entry.seq)
        if self._uses_rex:
            entry.rex_state = _PENDING
        if self.svw is not None:
            # The NLQ/SSQ dispatch rule: ``ld.SVW = SSN_RETIRE``.
            entry.svw = self.ssn.retire
        # RLE: try to integrate before doing anything else.
        if self.it is not None and self._try_integrate(entry):
            if self._rex_active:
                self.rex_queue.append(entry)
            return
        self.iq_occ += 1
        # Memory dependence prediction.
        if self.store_sets is not None:
            store_seq = self.store_sets.load_dependence(entry.pc)
            if store_seq is not None:
                blocker = self.inflight_by_seq.get(store_seq)
                if blocker is not None and blocker.kind == KIND_STORE and not blocker.done:
                    entry.pending_srcs += 1
                    blocker.add_waiter(entry)
                    self.stats.store_set_waits += 1
        if self._on_load_dispatch is not None:
            self._on_load_dispatch(entry)
        if self._rex_active:
            self.rex_queue.append(entry)

    def _try_integrate(self, entry: InFlight) -> bool:
        """RLE at rename: eliminate the load if the IT has its signature."""
        signature = self.meta.signature[entry.seq]
        if signature is None:
            return False
        it_entry = self.it.lookup(signature)
        if it_entry is None:
            self.it.create(signature, entry, ssn=self.ssn.rename, from_store=False)
            return False
        entry.eliminated = True
        entry.issued = True  # never enters the issue queue
        entry.marked = True
        entry.elim_bypass = it_entry.from_store
        entry.it_signature = signature
        entry.squash_reuse = it_entry.creator_squashed or it_entry.creator.seq == entry.seq
        entry.exec_value = it_entry.value
        if entry.size == 4:
            entry.exec_value &= 0xFFFF_FFFF
        if entry.squash_reuse:
            # SVW cannot cover squash reuse (section 4.3 corner case).
            entry.svw = -1
        else:
            entry.svw = it_entry.ssn
        if it_entry.creator.done or it_entry.creator.squashed:
            self._schedule_completion(entry, self.cycle + 1)
        else:
            entry.pending_srcs += 1
            it_entry.creator.add_waiter(entry)
        return True

    def _dispatch_store(self, entry: InFlight) -> None:
        self.sq_occ += 1
        self.iq_occ += 1
        entry.ssn = self.ssn.dispatch_store()
        store_words = self.store_words
        for word in self.meta.words[entry.seq]:
            bucket = store_words.get(word)
            if bucket is None:
                store_words[word] = [entry]
            else:
                bucket.append(entry)
        if self.store_sets is not None:
            previous = self.store_sets.store_dispatched(entry.pc, entry.seq)
            if previous is not None:
                blocker = self.inflight_by_seq.get(previous)
                if blocker is not None and blocker.kind == KIND_STORE and not blocker.done:
                    entry.pending_srcs += 1
                    blocker.add_waiter(entry)
        if self.it is not None:
            signature = self.meta.signature[entry.seq]
            if signature is not None:
                self.it.create(signature, entry, ssn=entry.ssn, from_store=True)
        if self._rex_active:
            self.rex_queue.append(entry)

    # ------------------------------------------------------------------ flushes

    def _ordering_flush(self, victim: InFlight, store: InFlight) -> None:
        """Conventional LQ search hit: flush the load and younger."""
        self.stats.ordering_flushes += 1
        if self.store_sets is not None:
            self.store_sets.train(victim.pc, store.pc)
        self._squash_from(victim.seq)

    def _rex_failure_flush(self, load: InFlight) -> None:
        """Re-execution mismatch: the load commits corrected; flush younger."""
        store_pc = self.spct.lookup(load.addr)
        self.lsu.on_rex_failure(load, store_pc)
        if self.it is not None and load.it_signature is not None:
            self.it.invalidate(load.it_signature)
        self._squash_from(load.seq + 1)

    def _svw_only_flush(self, load: InFlight) -> None:
        """SVW-as-replacement mode: positive test flushes and refetches."""
        self.stats.svw_only_flushes += 1
        store_pc = self.spct.lookup(load.addr)
        self.lsu.on_rex_failure(load, store_pc)
        if self.store_sets is not None and store_pc is not None:
            self.store_sets.train(load.pc, store_pc)
        # The refetched copy must not re-integrate a stale reuse value (its
        # re-issued access alone is guaranteed correct), and must not flush
        # a second time on the same stale SSBF state (forward progress).
        if self.it is not None and load.it_signature is not None:
            self.it.invalidate(load.it_signature)
        self._svw_retried.add(load.seq)
        self._squash_from(load.seq)

    def _squash_from(self, flush_seq: int) -> None:
        """Remove every in-flight instruction with seq >= flush_seq."""
        self._worked = True
        self.stats.flushes += 1
        rob = self.rob
        m_words = self.meta.words
        store_words = self.store_words
        on_leave = self._on_leave
        while rob and rob[-1].seq >= flush_seq:
            entry = rob.pop()
            entry.squashed = True
            del self.inflight_by_seq[entry.seq]
            kind = entry.kind
            if not entry.issued and not entry.eliminated:
                self.iq_occ -= 1
            if entry.dst_reg >= 0:
                self.reg_occ -= 1
            if kind == KIND_LOAD:
                self.lq_occ -= 1
            elif kind == KIND_STORE:
                self.sq_occ -= 1
                for word in m_words[entry.seq]:
                    stores = store_words.get(word)
                    if stores:
                        if stores[-1] is entry:
                            stores.pop()
                        else:  # pragma: no cover - defensive
                            try:
                                stores.remove(entry)
                            except ValueError:
                                pass
                        if not stores:
                            del store_words[word]
                if self.store_sets is not None:
                    self.store_sets.store_done(entry.pc, entry.seq)
            else:
                continue
            if on_leave is not None:
                on_leave(entry)
        uncommitted = self._uncommitted_loads
        while uncommitted and uncommitted[-1] >= flush_seq:
            uncommitted.pop()
        rex_queue = self.rex_queue
        while rex_queue and rex_queue[-1].seq >= flush_seq:
            rex_queue.pop()
        self.ssn.squash_to(self.sq_occ)
        if self.it is not None:
            self.it.on_squash(flush_seq, keep_squash_reuse=self.config.squash_reuse)
        if self.fetch_blocker is not None and self.fetch_blocker.squashed:
            self.fetch_blocker = None
        self.fetch_seq = flush_seq
        self.fetch_resume = max(self.fetch_resume, self.cycle + self.config.flush_penalty)

    def _inject_invalidation(self) -> None:
        """Synthetic NLQ-SM coherence invalidation.

        The paper defines NLQ-SM but runs no shared-memory program, so
        :func:`repro.harness.configs.nlqsm_configs` drives the mechanism
        with this stream instead.

        A remote agent invalidates the line of a recently-touched load
        address.  All in-flight loads become vulnerable (the NLQ-SM
        natural filter marks them); the SSBF receives a pretend-store of
        ``SSN_RENAME + 1`` covering every word of the line.  The
        invalidation is *silent* -- it carries no remote data -- so
        single-thread functional correctness is preserved while the
        re-execution cost is measured faithfully.
        """
        line_addr = None
        for entry in reversed(self.rob):
            if entry.kind == KIND_LOAD and entry.issued:
                line_addr = entry.addr & ~63
                break
        if line_addr is None:
            return
        self.hierarchy.invalidate(line_addr)
        if self.svw is not None:
            self.svw.record_invalidation(line_addr)
        for entry in self.rob:
            if entry.kind == KIND_LOAD and entry.rex_state is _PENDING:
                entry.marked = True
