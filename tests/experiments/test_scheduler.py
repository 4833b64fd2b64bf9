"""The transport-free cell scheduler shared by RemoteBackend and the
campaign daemon: dispatch order, attempts, quarantine, dedup, cancel,
failure cascades -- no sockets, no sleeps, a fake clock -- and the
CostModel it orders cells by."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import BatchRunner, CostModel, SerialBackend, matrix_spec
from repro.experiments.scheduler import (
    DEADLINE_FLOOR,
    Scheduler,
    check_limits,
    derive_deadline,
)
from repro.harness.configs import fig5_configs
from repro.harness.goldens import bench_configs
from repro.pipeline.config import RexMode

CONFIGS = dict(list(fig5_configs().items())[:3])  # baseline, NLQ, +SVW-UPD


def cells(name="sched", workloads=("gcc", "vortex"), labels=None):
    configs = CONFIGS if labels is None else {label: CONFIGS[label] for label in labels}
    return matrix_spec(
        name, configs, list(workloads), n_insts=1000, baseline=next(iter(configs))
    ).cells()


class FakeCost:
    """Cost by (workload, config label); every unlisted cell costs 1."""

    def __init__(self, table=None):
        self.table = table or {}

    def cost(self, request):
        return self.table.get((request.workload.name, request.config_label), 1.0)

    def expected_seconds(self, config, n_insts):
        return None


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def drain_order(scheduler):
    order = []
    while (cell := scheduler.next_cell()) is not None:
        order.append(cell)
    return order


class TestDispatchOrder:
    def test_longest_first_then_workload_then_fingerprint(self):
        requests = cells()
        cost = FakeCost(
            {
                ("gcc", "baseline"): 5.0,
                ("vortex", "baseline"): 5.0,
                ("gcc", "NLQ"): 9.0,
                ("vortex", "NLQ"): 0.5,
                ("gcc", "+SVW-UPD"): 5.0,
                ("vortex", "+SVW-UPD"): 0.5,
            }
        )
        scheduler = Scheduler(cost)
        scheduler.submit("s", requests)
        order = drain_order(scheduler)
        by_label = {(r.workload.name, r.config_label): r for r in requests}
        gcc_ties = sorted(
            (by_label[("gcc", "baseline")], by_label[("gcc", "+SVW-UPD")]),
            key=lambda r: r.fingerprint(),
        )
        vortex_ties = sorted(
            (by_label[("vortex", "NLQ")], by_label[("vortex", "+SVW-UPD")]),
            key=lambda r: r.fingerprint(),
        )
        expected = [
            by_label[("gcc", "NLQ")],  # most expensive
            *gcc_ties,  # cost 5: gcc before vortex, then by fingerprint
            by_label[("vortex", "baseline")],
            *vortex_ties,
        ]
        assert [c.fingerprint for c in order] == [r.fingerprint() for r in expected]
        assert all(c.status == "in_flight" and c.attempts == 1 for c in order)
        assert scheduler.next_cell() is None

    def test_duplicate_requests_are_one_cell(self):
        requests = cells(workloads=("gcc",), labels=("baseline",))
        scheduler = Scheduler(FakeCost())
        submission, attached = scheduler.submit("s", requests * 3)
        assert not attached
        assert submission.fingerprints == [requests[0].fingerprint()]
        assert len(drain_order(scheduler)) == 1


class TestTraceAffinity:
    """``next_cell(warm=...)``: a worker drains the trace it holds first."""

    def test_warm_takes_first_pending_cell_of_that_trace(self):
        requests = cells()
        # Config-major: NLQ costs most, baseline least, on both workloads.
        cost = FakeCost(
            {
                (workload, label): weight
                for workload in ("gcc", "vortex")
                for label, weight in (("baseline", 1.0), ("NLQ", 3.0), ("+SVW-UPD", 2.0))
            }
        )
        scheduler = Scheduler(cost)
        scheduler.submit("s", requests)
        first = scheduler.next_cell()
        assert (first.request.workload.name, first.request.config_label) == ("gcc", "NLQ")
        vortex = next(r for r in requests if r.workload.name == "vortex")
        warm = scheduler.cells[vortex.fingerprint()].trace_key
        taken = [scheduler.next_cell(warm=warm) for _ in range(3)]
        # vortex's three cells in dispatch order, ahead of gcc's cheaper two.
        assert [(c.request.workload.name, c.request.config_label) for c in taken] == [
            ("vortex", "NLQ"),
            ("vortex", "+SVW-UPD"),
            ("vortex", "baseline"),
        ]
        assert all(c.status == "in_flight" and c.attempts == 1 for c in taken)

    def test_falls_back_to_dispatch_order_when_trace_drained(self):
        scheduler = Scheduler(FakeCost())
        scheduler.submit("s", cells())
        expected = sorted(scheduler.cells.values(), key=lambda c: c.order)
        gcc = [c.fingerprint for c in expected if c.request.workload.name == "gcc"]
        vortex = [c.fingerprint for c in expected if c.request.workload.name == "vortex"]
        warm = scheduler.cells[vortex[0]].trace_key
        # vortex sorts after gcc, so warm vortex runs first; once it is
        # drained, gcc follows in dispatch order.
        order = [scheduler.next_cell(warm=warm).fingerprint for _ in expected]
        assert order == vortex + gcc
        assert scheduler.next_cell(warm=warm) is None

    def test_unknown_or_no_warm_trace_keeps_dispatch_order(self):
        requests = cells(workloads=("gcc", "vortex", "mcf"))
        for warm in (None, "no-such-trace"):
            scheduler = Scheduler(FakeCost())
            scheduler.submit("s", requests)
            expected = sorted(scheduler.cells.values(), key=lambda c: c.order)
            order = [scheduler.next_cell(warm=warm) for _ in requests]
            assert [c.fingerprint for c in order] == [c.fingerprint for c in expected]

    def test_two_workers_switch_traces_about_once_per_trace(self):
        workloads = ("bzip2", "crafty", "gap", "gcc", "mcf", "vortex")
        configs = fig5_configs()
        requests = matrix_spec("affine", configs, list(workloads), n_insts=1000).cells()
        # Cost by config alone: the dispatch order is config-major.
        cost = FakeCost(
            {
                (workload, label): float(len(configs) - rank)
                for workload in workloads
                for rank, label in enumerate(configs)
            }
        )
        scheduler = Scheduler(cost)
        scheduler.submit("s", requests)
        held = [None, None]
        switches = 0
        turn = 0
        while (cell := scheduler.next_cell(warm=held[turn])) is not None:
            if cell.trace_key != held[turn]:
                switches += 1
                held[turn] = cell.trace_key
            scheduler.complete(cell, object(), f"w{turn}")
            turn = 1 - turn
        assert all(c.status == "done" for c in scheduler.cells.values())
        assert switches <= 2 * len(workloads)
        # Without the warm trace every cell of this order is a switch.
        blind = Scheduler(cost)
        blind.submit("s", requests)
        keys = [c.trace_key for c in drain_order(blind)]
        assert sum(a != b for a, b in zip(keys, keys[2:])) + 2 == len(requests)


class TestAttempts:
    def test_requeued_below_max_attempts_then_failed(self):
        requests = cells(workloads=("gcc",), labels=("baseline",))
        scheduler = Scheduler(FakeCost(), max_attempts=2)
        submission, _ = scheduler.submit("s", requests)
        cell = scheduler.next_cell()
        failed, _ = scheduler.lost(cell, "w1:1", "connection reset")
        assert failed == []
        assert cell.status == "pending" and cell.fingerprint in scheduler.pending
        assert submission.status == "running"
        again = scheduler.next_cell()
        assert again is cell and cell.attempts == 2
        failed, _ = scheduler.lost(cell, "w2:1", "connection reset")
        assert failed == [submission]
        assert cell.status == "failed"
        assert submission.status == "failed"
        assert "worker lost 2 times (last: w2:1: connection reset)" in submission.error
        assert scheduler.next_cell() is None

    def test_limits_are_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            Scheduler(FakeCost(), max_attempts=0)
        with pytest.raises(ValueError, match="job_deadline"):
            Scheduler(FakeCost(), job_deadline=-1)
        with pytest.raises(ValueError, match="quarantine_after"):
            Scheduler(FakeCost(), quarantine_after=0)
        assert check_limits(1, "auto") == "auto"
        assert check_limits(1, None) is None
        assert check_limits(1, "2.5") == 2.5

    def test_deadline_follows_the_setting(self):
        request = cells(workloads=("gcc",), labels=("baseline",))[0]
        assert Scheduler(FakeCost(), job_deadline=3).deadline(request) == 3.0
        assert Scheduler(FakeCost(), job_deadline=None).deadline(request) is None
        # "auto" with an unmeasured config: no deadline at all.
        assert Scheduler(FakeCost()).deadline(request) is None

        class Measured(FakeCost):
            def expected_seconds(self, config, n_insts):
                return 0.5

        assert derive_deadline(Measured(), request, "auto") == DEADLINE_FLOOR


class TestQuarantine:
    def test_pause_doubles_up_to_the_cap(self):
        clock = FakeClock()
        scheduler = Scheduler(
            FakeCost(),
            quarantine_after=2,
            quarantine_base=5.0,
            quarantine_cap=12.0,
            clock=clock,
        )
        pauses = [scheduler.strike("w:1") for _ in range(8)]
        assert pauses == [None, 5.0, None, 10.0, None, 12.0, None, 12.0]
        assert scheduler.quarantined_for("w:1") == 12.0
        clock.now += 11.5
        assert scheduler.quarantined_for("w:1") == pytest.approx(0.5)
        clock.now += 1.0
        assert scheduler.quarantined_for("w:1") == 0.0
        assert scheduler.quarantined_for("never-struck:1") == 0.0

    def test_completed_cell_clears_strikes(self):
        from repro.pipeline.stats import SimStats

        clock = FakeClock()
        scheduler = Scheduler(FakeCost(), quarantine_after=2, clock=clock)
        scheduler.submit("s", cells(workloads=("gcc",)))
        assert scheduler.strike("w:1") is None
        cell = scheduler.next_cell()
        scheduler.complete(cell, SimStats(), "w:1")
        assert scheduler.health["w:1"].strikes == 0
        # One more failure is again the first strike, not a quarantine.
        assert scheduler.strike("w:1") is None
        assert scheduler.quarantined_for("w:1") == 0.0


class TestSubmissions:
    def test_overlapping_submissions_share_cells(self):
        from repro.pipeline.stats import SimStats

        a = cells(name="a", workloads=("gcc",), labels=("baseline", "NLQ"))
        b = cells(name="b", workloads=("gcc",), labels=("NLQ", "+SVW-UPD"))
        scheduler = Scheduler(FakeCost())
        sub_a, _ = scheduler.submit("a", a)
        sub_b, _ = scheduler.submit("b", b)
        assert len(scheduler.cells) == 3
        assert scheduler.cells_deduped == 1
        shared = scheduler.cells[a[1].fingerprint()]
        assert shared.submissions == {sub_a.id, sub_b.id}
        stats = SimStats()
        assert scheduler.complete(shared, stats, "w:1") == []
        # The shared result reached both submissions.
        assert shared.fingerprint not in sub_a.remaining | sub_b.remaining
        assert scheduler.counts(sub_a) == scheduler.counts(sub_b) == (2, 1)
        only_a = scheduler.cells[a[0].fingerprint()]
        assert scheduler.complete(only_a, stats, "w:1") == [sub_a]
        assert sub_a.status == "done" and sub_b.status == "running"
        assert scheduler.counts(sub_b) == (2, 1)

    def test_identical_submission_attaches(self):
        requests = cells()
        scheduler = Scheduler(FakeCost())
        first, attached = scheduler.submit("s", requests)
        again, attached_again = scheduler.submit("s", list(reversed(requests)) + requests)
        assert not attached
        # A different cell order is a different submission id ...
        assert again is not first and not attached_again
        # ... the same cells in the same order attach.
        same, attached_same = scheduler.submit("s", requests)
        assert same is first and attached_same

    def test_stored_cells_are_answered_at_submit(self):
        from repro.pipeline.stats import SimStats

        requests = cells(workloads=("gcc",))
        known = {requests[0].fingerprint(): SimStats()}
        scheduler = Scheduler(FakeCost())
        submission, _ = scheduler.submit("s", requests, stored=known.get)
        assert scheduler.cells_from_store == 1
        assert scheduler.cells[requests[0].fingerprint()].status == "done"
        assert scheduler.counts(submission) == (3, 1)
        assert len(scheduler.pending) == 2

    def test_cancel_releases_only_unshared_pending_cells(self):
        a = cells(name="a", workloads=("gcc",), labels=("baseline", "NLQ", "+SVW-UPD"))
        b = cells(name="b", workloads=("gcc",), labels=("NLQ",))
        cost = FakeCost({("gcc", "+SVW-UPD"): 9.0})
        scheduler = Scheduler(cost)
        sub_a, _ = scheduler.submit("a", a)
        sub_b, _ = scheduler.submit("b", b)
        in_flight = scheduler.next_cell()  # the expensive a-only cell
        assert in_flight.fingerprint == a[2].fingerprint()
        scheduler.cancel(sub_a)
        assert sub_a.status == "cancelled" and not sub_a.remaining
        # a-only pending cell: gone.  Shared cell: still queued for b.
        # a-only in-flight cell: kept, it finishes (and may be stored).
        assert a[0].fingerprint() not in scheduler.cells
        assert scheduler.pending == {b[0].fingerprint()}
        assert scheduler.cells[b[0].fingerprint()].submissions == {sub_b.id}
        assert in_flight.fingerprint in scheduler.cells
        assert sub_b.status == "running"
        scheduler.cancel(sub_a)  # idempotent on a terminal submission
        assert sub_a.status == "cancelled"

    def test_failure_cascades_to_every_waiting_submission(self):
        a = cells(name="a", workloads=("gcc",), labels=("baseline", "NLQ"))
        b = cells(name="b", workloads=("gcc",), labels=("NLQ", "+SVW-UPD"))
        scheduler = Scheduler(FakeCost())
        sub_a, _ = scheduler.submit("a", a)
        sub_b, _ = scheduler.submit("b", b)
        shared = scheduler.cells[a[1].fingerprint()]
        failed = scheduler.fail(shared, "SimulationError: boom")
        assert {s.id for s in failed} == {sub_a.id, sub_b.id}
        for submission in (sub_a, sub_b):
            assert submission.status == "failed"
            assert submission.error.endswith("gcc / NLQ: SimulationError: boom")
            assert not submission.remaining
        # Both submissions' other cells were released.
        assert scheduler.pending == set()
        assert set(scheduler.cells) == {shared.fingerprint}
        # A later submission touching the failed cell fails at once.
        late, _ = scheduler.submit("late", b[:1])
        assert late.status == "failed" and "boom" in late.error


class TestLiveTraces:
    """``Scheduler.live`` counts each trace's pending and in-flight cells;
    ``trace_idle`` hears a key exactly once, when its last cell settles."""

    @staticmethod
    def watched(cost=None, **kwargs):
        scheduler = Scheduler(cost or FakeCost(), **kwargs)
        idled: list[str] = []
        scheduler.trace_idle = idled.append
        return scheduler, idled

    @staticmethod
    def by_scan(scheduler):
        """The live counts a full scan of the cell table finds."""
        counts: dict[str, int] = {}
        for cell in scheduler.cells.values():
            if cell.status in ("pending", "in_flight"):
                counts[cell.trace_key] = counts.get(cell.trace_key, 0) + 1
        return counts

    @staticmethod
    def keys(scheduler, requests):
        return {r.workload.name: scheduler.cells[r.fingerprint()].trace_key for r in requests}

    def test_submit_counts_queued_cells_only(self):
        from repro.pipeline.stats import SimStats

        requests = cells()
        scheduler, idled = self.watched()
        stored = {requests[0].fingerprint(): SimStats()}  # one gcc cell
        scheduler.submit("s", requests, stored=stored.get)
        key = self.keys(scheduler, requests)
        assert scheduler.live == {key["gcc"]: 2, key["vortex"]: 3}
        # An overlapping submission shares cells and adds none.
        scheduler.submit("t", requests[:2])
        assert scheduler.live == self.by_scan(scheduler) == {key["gcc"]: 2, key["vortex"]: 3}
        assert idled == []

    def test_all_stored_submission_is_never_live(self):
        from repro.pipeline.stats import SimStats

        requests = cells(workloads=("gcc",))
        scheduler, idled = self.watched()
        scheduler.submit("s", requests, stored=lambda fingerprint: SimStats())
        assert scheduler.live == {} and idled == []

    def test_dispatch_and_requeue_keep_the_count(self):
        requests = cells(workloads=("gcc",))
        scheduler, idled = self.watched()
        scheduler.submit("s", requests)
        key = self.keys(scheduler, requests)["gcc"]
        cell = scheduler.next_cell()
        assert scheduler.live == {key: 3}
        failed, _ = scheduler.lost(cell, "w:1", "connection reset")
        assert failed == [] and cell.status == "pending"
        assert scheduler.live == self.by_scan(scheduler) == {key: 3}
        assert idled == []

    def test_complete_idles_a_trace_at_its_last_cell(self):
        requests = cells()
        scheduler, idled = self.watched()
        scheduler.submit("s", requests)
        key = self.keys(scheduler, requests)
        done = 0
        while (cell := scheduler.next_cell(warm=key["gcc"])) is not None:
            scheduler.complete(cell, object(), "w:1")
            done += 1
            assert scheduler.live == self.by_scan(scheduler)
            if done == 3:  # gcc drains first: warm
                assert idled == [key["gcc"]]
        assert idled == [key["gcc"], key["vortex"]]
        assert scheduler.live == {}

    def test_fail_settles_the_cell_and_every_released_cell(self):
        a = cells(name="a", workloads=("gcc", "vortex"), labels=("baseline", "NLQ"))
        b = cells(name="b", workloads=("vortex",), labels=("NLQ",))
        scheduler, idled = self.watched(FakeCost({("vortex", "NLQ"): 9.0}))
        sub_a, _ = scheduler.submit("a", a)
        scheduler.submit("b", b)
        key = self.keys(scheduler, a)
        shared = scheduler.next_cell()  # vortex / NLQ, a's and b's
        assert shared.fingerprint == b[0].fingerprint()
        gcc = scheduler.next_cell(warm=key["gcc"])
        scheduler.fail(gcc, "SimulationError: boom")
        # a failed: its other pending cells (the other gcc cell, vortex /
        # baseline) are dropped; the shared vortex cell stays in flight for b.
        assert sub_a.status == "failed"
        assert idled == [key["gcc"]]
        assert scheduler.live == self.by_scan(scheduler) == {key["vortex"]: 1}
        scheduler.complete(shared, object(), "w:1")
        assert idled == [key["gcc"], key["vortex"]]

    def test_lost_past_max_attempts_settles_once(self):
        requests = cells(workloads=("gcc",), labels=("baseline",))
        scheduler, idled = self.watched(max_attempts=2)
        scheduler.submit("s", requests)
        cell = scheduler.next_cell()
        scheduler.lost(cell, "w:1", "reset")
        assert idled == []
        scheduler.lost(scheduler.next_cell(), "w:1", "reset")
        assert cell.status == "failed"
        assert idled == [cell.trace_key] and scheduler.live == {}

    def test_lost_cell_nobody_waits_on_is_dropped(self):
        """A cancelled campaign's in-flight cell, lost with its worker, is
        not simulated again for nobody: it settles and idles its trace."""
        requests = cells(workloads=("gcc",), labels=("baseline",))
        scheduler, idled = self.watched()
        submission, _ = scheduler.submit("s", requests)
        cell = scheduler.next_cell()
        scheduler.cancel(submission)
        assert scheduler.live == {cell.trace_key: 1} and idled == []
        failed, _ = scheduler.lost(cell, "w:1", "reset")
        assert failed == []
        assert cell.fingerprint not in scheduler.cells and not scheduler.pending
        assert scheduler.live == {} and idled == [cell.trace_key]

    def test_cancel_idles_traces_nobody_else_waits_on(self):
        a = cells(name="a", workloads=("gcc", "vortex", "mcf"), labels=("baseline", "NLQ"))
        b = cells(name="b", workloads=("vortex",), labels=("baseline",))
        scheduler, idled = self.watched(FakeCost({("mcf", "NLQ"): 9.0}))
        sub_a, _ = scheduler.submit("a", a)
        scheduler.submit("b", b)
        key = self.keys(scheduler, a)
        in_flight = scheduler.next_cell()  # mcf / NLQ
        assert in_flight.trace_key == key["mcf"]
        scheduler.cancel(sub_a)
        # gcc: every cell was a-only and pending -> idle.  vortex: b still
        # waits on one cell.  mcf: one cell still in flight.
        assert idled == [key["gcc"]]
        assert scheduler.live == self.by_scan(scheduler) == {key["vortex"]: 1, key["mcf"]: 1}
        scheduler.complete(in_flight, object(), "w:1")
        scheduler.complete(scheduler.next_cell(), object(), "w:1")
        assert sorted(idled) == sorted(key.values()) and len(idled) == 3
        assert scheduler.live == {}


class TestCostModel:
    INSTS = 1200

    @staticmethod
    def family_configs():
        return {kind: config for kind, (_, config) in bench_configs().items()}

    def spec(self):
        configs = self.family_configs()
        slow = dataclasses.replace(configs["conventional"], name="slow")
        return matrix_spec(
            "adaptive",
            {"slow": slow, "a": configs["conventional"], "b": configs["nlq"],
             "c": configs["ssq"]},
            ["gcc"],
            self.INSTS,
            baseline="a",
        )

    def test_perfect_configs_weigh_heavier_unmeasured(self):
        model = CostModel()
        configs = self.family_configs()
        perfect = dataclasses.replace(
            configs["conventional"], name="ideal", rex_mode=RexMode.PERFECT
        )
        assert model.weight(perfect) == CostModel.PERFECT_WEIGHT
        assert model.weight(configs["conventional"]) == 1.0

    def test_observations_shift_weights(self):
        model = CostModel()
        configs = self.family_configs()
        slow, fast = configs["ssq"], configs["conventional"]
        model.observe(slow, 1000, 1.0)  # 1 ms/inst
        model.observe(fast, 1000, 0.1)  # 0.1 ms/inst
        assert model.weight(slow) > model.weight(fast)
        assert model.weight(slow) / model.weight(fast) == pytest.approx(10.0)

    def test_bogus_observations_ignored(self):
        model = CostModel()
        config = self.family_configs()["nlq"]
        model.observe(config, 0, 1.0)
        model.observe(config, 1000, 0.0)
        assert model.weight(config) == 1.0

    def test_results_identical_whatever_the_model_believes(self):
        requests = self.spec().cells()
        serial = SerialBackend().run(requests)
        skewed = CostModel()
        skewed.observe(requests[0].config, self.INSTS, 100.0)
        skewed.observe(requests[1].config, self.INSTS, 0.001)
        pooled = BatchRunner(jobs=2, cost_model=skewed).run(requests)
        assert [s.fingerprint() for s in pooled] == [s.fingerprint() for s in serial]

    def test_runner_learns_rates_from_real_runs(self):
        model = CostModel()
        BatchRunner(jobs=2, cost_model=model).run(self.spec().cells())
        assert model._rates  # workers reported per-cell timings
