"""Behavioural tests of the processor model across configurations."""

from heapq import heappop, heappush

import pytest

from repro.core.svw import SVWConfig
from repro.isa import golden
from repro.isa.inst import KIND_LOAD
from repro.pipeline.config import LSUKind, RexMode, eight_wide, four_wide
from repro.pipeline.inflight import InFlight
from repro.pipeline.processor import Processor, SimulationError
from repro.rle.integration import IntegrationTable
from repro.workloads.kernels import kernel_trace


def _nlq(name="nlq", **kw):
    params = dict(
        lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2, store_issue=2
    )
    params.update(kw)
    return eight_wide(name, **params)


def _ssq(name="ssq", **kw):
    params = dict(
        lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2, load_latency=2
    )
    params.update(kw)
    return eight_wide(name, **params)


class TestReadyHeap:
    def test_tied_seq_pops_squashed_twin_first(self):
        """Ready items are ``(seq, entry)``: a squashed entry and its
        refetched twin tie on seq, and ``InFlight.__lt__`` breaks the tie
        (without it, comparing the two entries raises ``TypeError``)."""
        older = InFlight(3, 0x100, KIND_LOAD, 1)
        squashed = InFlight(7, 0x104, KIND_LOAD, 2)
        squashed.squashed = True
        refetched = InFlight(7, 0x104, KIND_LOAD, 2)
        for order in ([refetched, squashed, older], [squashed, refetched, older],
                      [older, refetched, squashed]):
            ready: list[tuple[int, InFlight]] = []
            for entry in order:
                heappush(ready, (entry.seq, entry))
            popped = [heappop(ready)[1] for _ in order]
            assert [entry.seq for entry in popped] == [3, 7, 7]
            assert popped == [older, squashed, refetched]


class TestGoldenValidation:
    """``validate=True`` checks committed loads against golden values that
    are computed once per trace, however many machines replay it."""

    def test_golden_execution_runs_once_per_trace(self, monkeypatch):
        calls = []
        real = golden.golden_execute

        def counting(trace):
            calls.append(trace)
            return real(trace)

        monkeypatch.setattr(golden, "golden_execute", counting)
        trace = kernel_trace("spill_fill", n_frames=20)
        for config in (eight_wide(), _nlq(), _ssq()):
            stats = Processor(config, trace, validate=True).run()
            assert stats.committed == len(trace)
        assert calls == [trace]

    def test_planted_wrong_load_value_raises(self):
        trace = kernel_trace("spill_fill", n_frames=20)
        loads = trace.golden_loads()
        seq = max(loads)
        loads[seq] ^= 1
        with pytest.raises(SimulationError, match=f"load seq={seq} "):
            Processor(eight_wide(), trace, validate=True).run()


class TestBaseline:
    def test_commits_whole_trace(self, spill_fill_trace):
        stats = Processor(eight_wide(), spill_fill_trace).run()
        assert stats.committed == len(spill_fill_trace)

    def test_ipc_within_machine_limits(self, spill_fill_trace):
        stats = Processor(eight_wide(), spill_fill_trace).run()
        assert 0.1 < stats.ipc <= 8.0

    def test_narrower_machine_is_slower(self, sort_trace):
        wide = Processor(eight_wide(), sort_trace).run()
        narrow = Processor(four_wide(), sort_trace).run()
        assert narrow.ipc <= wide.ipc + 0.05

    def test_store_forwarding_happens(self, spill_fill_trace):
        stats = Processor(eight_wide(), spill_fill_trace).run()
        assert stats.forwarded_loads > 100

    def test_warmup_excludes_statistics(self, spill_fill_trace):
        full = Processor(eight_wide(), spill_fill_trace).run()
        warmed = Processor(eight_wide(), spill_fill_trace, warmup=2000).run()
        assert warmed.committed == full.committed - 2000
        assert warmed.cycles < full.cycles


class TestNLQ:
    def test_marks_speculative_loads(self, small_gcc_trace):
        stats = Processor(_nlq(), small_gcc_trace).run()
        assert stats.marked_loads > 0
        assert stats.reexecuted_loads == stats.marked_loads  # no filter

    def test_no_lq_search_flushes(self, small_gcc_trace):
        stats = Processor(_nlq(), small_gcc_trace).run()
        assert stats.ordering_flushes == 0  # ordering checked by rex instead

    def test_svw_filters_most_reexecutions(self, small_gcc_trace):
        plain = Processor(_nlq(), small_gcc_trace).run()
        svw = Processor(_nlq("nlq+svw", svw=SVWConfig()), small_gcc_trace).run()
        assert svw.reexecuted_loads < plain.reexecuted_loads
        assert svw.filtered_loads > 0
        assert svw.marked_loads + 50 > plain.marked_loads  # same natural filter

    def test_upd_filters_at_least_as_much(self, small_vortex_trace):
        noupd = Processor(
            _nlq("a", svw=SVWConfig(update_on_forward=False)), small_vortex_trace
        ).run()
        upd = Processor(_nlq("b", svw=SVWConfig()), small_vortex_trace).run()
        assert upd.reexec_rate <= noupd.reexec_rate + 0.01


class TestSSQ:
    def test_marks_every_load(self, small_gcc_trace):
        stats = Processor(_ssq(), small_gcc_trace).run()
        assert stats.marked_loads == stats.committed_loads

    def test_steering_trains_on_failures(self, small_vortex_trace):
        processor = Processor(_ssq(), small_vortex_trace)
        stats = processor.run()
        if stats.rex_failures:
            assert processor.lsu.load_bits or processor.lsu.store_bits

    def test_fsq_allocation_bounded(self, small_vortex_trace):
        processor = Processor(_ssq(), small_vortex_trace)
        processor.run()
        assert 0 <= processor.lsu.fsq_occupancy <= processor.config.fsq_size


class TestRLE:
    def _rle(self, **kw):
        return four_wide(
            "rle", rle=True, rex_mode=RexMode.REEXECUTE, rex_stages=4, **kw
        )

    def test_eliminates_redundant_loads(self, small_vortex_trace):
        stats = Processor(self._rle(), small_vortex_trace).run()
        assert stats.eliminated_reuse > 0
        assert stats.eliminated_bypass > 0
        assert stats.reexecuted_loads == stats.marked_loads

    def test_only_eliminated_loads_marked(self, small_vortex_trace):
        stats = Processor(self._rle(), small_vortex_trace).run()
        assert stats.marked_loads == stats.eliminated_reuse + stats.eliminated_bypass

    def test_svw_squ_removes_squash_reuse(self, small_vortex_trace):
        with_squ = Processor(self._rle(svw=SVWConfig()), small_vortex_trace).run()
        without = Processor(
            self._rle(svw=SVWConfig(), squash_reuse=False), small_vortex_trace
        ).run()
        assert without.squash_reuse_loads == 0
        assert without.reexec_rate <= with_squ.reexec_rate + 0.01

    def test_eliminated_load_takes_it_entry_ssn(self, monkeypatch, small_vortex_trace):
        """Section 3.4: an eliminated load's window is the SSN its IT entry
        was created under, not ``SSN_RETIRE`` and not a MIN of the two;
        squash reuse, which SVW cannot cover, gets no window at all."""
        found = []
        lookup = IntegrationTable.lookup
        integrate = Processor._try_integrate

        def recorded_lookup(self, signature):
            found.append(lookup(self, signature))
            return found[-1]

        checked = []

        def checked_integrate(self, entry):
            eliminated = integrate(self, entry)
            if eliminated:
                expected = -1 if entry.squash_reuse else found[-1].ssn
                checked.append((entry.svw == expected, entry.svw != self.ssn.retire))
            return eliminated

        monkeypatch.setattr(IntegrationTable, "lookup", recorded_lookup)
        monkeypatch.setattr(Processor, "_try_integrate", checked_integrate)
        Processor(self._rle(svw=SVWConfig()), small_vortex_trace, validate=True).run()
        assert checked and all(ok for ok, _ in checked)
        assert any(differs for _, differs in checked)


class TestSSNWrap:
    def test_narrow_ssns_force_drains(self, small_gcc_trace):
        config = _nlq("tiny-ssn", svw=SVWConfig(ssn_bits=6))
        stats = Processor(config, small_gcc_trace).run()
        assert stats.ssn_drains > 0
        assert stats.committed == len(small_gcc_trace)  # still correct

    def test_infinite_ssns_never_drain(self, small_gcc_trace):
        config = _nlq("inf-ssn", svw=SVWConfig(ssn_bits=None))
        stats = Processor(config, small_gcc_trace).run()
        assert stats.ssn_drains == 0


class TestSVWOnlyMode:
    def test_no_cache_reexecution_at_all(self, small_gcc_trace):
        config = _nlq("svw-only", svw=SVWConfig(), rex_mode=RexMode.SVW_ONLY)
        stats = Processor(config, small_gcc_trace, validate=True).run()
        assert stats.reexecuted_loads == 0
        assert stats.committed == len(small_gcc_trace)

    def test_positive_tests_flush(self, small_vortex_trace):
        config = _nlq("svw-only", svw=SVWConfig(), rex_mode=RexMode.SVW_ONLY)
        stats = Processor(config, small_vortex_trace).run()
        assert stats.svw_only_flushes >= 0  # mechanism exercised; soundness
        # is covered by validate=True in the test above


    def test_stale_positive_flushes_a_load_once(self, small_gcc_trace, monkeypatch):
        """NLQ-SM invalidations stamp ``SSN_RENAME + 1`` over lines, so a
        refetched load can test positive again on state no store wrote;
        it is filtered then, never flushed a second time."""
        flushed = []
        real = Processor._svw_only_flush

        def recording_flush(self, load):
            flushed.append(load.seq)
            real(self, load)

        monkeypatch.setattr(Processor, "_svw_only_flush", recording_flush)
        config = _nlq(
            "svw-only-sm",
            svw=SVWConfig(ssbf_kind="banked"),
            rex_mode=RexMode.SVW_ONLY,
            invalidation_interval=200,
        )
        stats = Processor(config, small_gcc_trace, validate=True).run()
        assert stats.committed == len(small_gcc_trace)
        assert stats.svw_only_flushes == len(flushed) > 0
        assert len(set(flushed)) == len(flushed)


class TestInvalidations:
    def test_nlqsm_marks_inflight_loads(self, small_gcc_trace):
        quiet = Processor(
            _nlq("q", svw=SVWConfig(ssbf_kind="banked")), small_gcc_trace
        ).run()
        noisy = Processor(
            _nlq(
                "n",
                svw=SVWConfig(ssbf_kind="banked"),
                invalidation_interval=200,
            ),
            small_gcc_trace,
            validate=True,
        ).run()
        assert noisy.marked_loads > quiet.marked_loads
        assert noisy.committed == len(small_gcc_trace)


class TestPerfectMode:
    def test_perfect_detects_like_rex(self, small_vortex_trace):
        rex = Processor(_nlq(), small_vortex_trace, validate=True).run()
        perfect = Processor(
            _nlq("p", rex_mode=RexMode.PERFECT), small_vortex_trace, validate=True
        ).run()
        assert perfect.committed == rex.committed
        # Perfect re-execution has no port cost, so it is at least as fast.
        assert perfect.ipc >= rex.ipc - 0.02
