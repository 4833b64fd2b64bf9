"""Unit tests for the SVW filter engine (paper section 3)."""

from repro.core.svw import SVWConfig, SVWEngine


class TestFilterTest:
    def test_negative_test_when_no_conflict(self):
        engine = SVWEngine()
        svw = engine.ssn.retire
        assert not engine.must_reexecute(0x1000, 8, svw)

    def test_positive_test_after_vulnerable_store(self):
        """A store inside the load's window forces re-execution."""
        engine = SVWEngine()
        svw = engine.ssn.retire  # load dispatches first
        ssn = engine.ssn.dispatch_store()
        engine.record_store(0x1000, 8, ssn)
        assert engine.must_reexecute(0x1000, 8, svw)

    def test_negative_test_for_pre_window_store(self):
        """A store that retired before the load dispatched is outside the
        window: the load is not vulnerable to it."""
        engine = SVWEngine()
        ssn = engine.ssn.dispatch_store()
        engine.record_store(0x1000, 8, ssn)
        engine.ssn.retire_store()
        svw = engine.ssn.retire  # load dispatches after retirement
        assert not engine.must_reexecute(0x1000, 8, svw)

    def test_different_address_no_reexecution(self):
        engine = SVWEngine()
        svw = engine.ssn.retire
        ssn = engine.ssn.dispatch_store()
        engine.record_store(0x1000, 8, ssn)
        # 0x2008 indexes a different SSBF entry than 0x1000.
        assert not engine.must_reexecute(0x2008, 8, svw)

    def test_disabled_engine_reexecutes_everything(self):
        engine = SVWEngine(SVWConfig(enabled=False))
        assert engine.must_reexecute(0x1000, 8, engine.ssn.retire)


class TestForwardUpdate:
    def test_forwarding_shrinks_window(self):
        """Reading from store N makes the load invulnerable to stores <= N
        (the +UPD rule, section 3.1)."""
        engine = SVWEngine()
        svw = engine.ssn.retire
        older = engine.ssn.dispatch_store()
        forwarding = engine.ssn.dispatch_store()
        engine.record_store(0x1000, 8, older)
        engine.record_store(0x1000, 8, forwarding)
        # Without the update the load must re-execute...
        assert engine.must_reexecute(0x1000, 8, svw)
        # ...after forwarding from the youngest colliding store, it need not.
        updated = engine.svw_after_forward(svw, forwarding)
        assert not engine.must_reexecute(0x1000, 8, updated)

    def test_update_does_not_cover_younger_stores(self):
        """Figure 4a: a store *younger* than the forwarding store still
        forces re-execution."""
        engine = SVWEngine()
        svw = engine.ssn.retire
        forwarding = engine.ssn.dispatch_store()
        younger = engine.ssn.dispatch_store()
        updated = engine.svw_after_forward(svw, forwarding)
        engine.record_store(0x1000, 8, younger)
        assert engine.must_reexecute(0x1000, 8, updated)

    def test_update_disabled_by_config(self):
        engine = SVWEngine(SVWConfig(update_on_forward=False))
        svw = engine.ssn.retire
        ssn = engine.ssn.dispatch_store()
        assert engine.svw_after_forward(svw, ssn) == svw

    def test_update_never_reopens_the_window(self):
        """Forwarding from a store the window already excludes leaves the
        window where it is: ``+UPD`` only moves it forward."""
        engine = SVWEngine()
        assert engine.svw_after_forward(10, 7) == 10

    def test_weak_upd_mutant_widens_to_ssn_rename(self, monkeypatch):
        """The planted fuzz mutant lives in this rule: it excuses the load
        from every store renamed so far, not just the forwarding one."""
        monkeypatch.setenv("SVW_FUZZ_WEAK_UPD", "1")
        engine = SVWEngine()
        svw = engine.ssn.retire
        forwarding = engine.ssn.dispatch_store()
        engine.ssn.dispatch_store()  # younger than the forwarding store
        assert engine.svw_after_forward(svw, forwarding) == engine.ssn.rename
        assert engine.ssn.rename > forwarding


class TestInvalidation:
    def test_invalidation_acts_as_future_store(self):
        """NLQ-SM: an invalidation writes SSN_RENAME+1, making every
        in-flight load to that line test positive (section 3.2)."""
        engine = SVWEngine(SVWConfig(ssbf_kind="banked"))
        svw = engine.ssn.retire
        engine.ssn.dispatch_store()  # some in-flight store
        engine.record_invalidation(0x4000)
        for offset in range(0, 64, 8):
            assert engine.must_reexecute(0x4000 + offset, 8, svw)

    def test_loads_dispatched_after_invalidation_unaffected(self):
        engine = SVWEngine(SVWConfig(ssbf_kind="banked"))
        engine.record_invalidation(0x4000)
        # The pretend-store SSN is rename+1; once a real store dispatches
        # and retires past it, new loads are not vulnerable.
        ssn = engine.ssn.dispatch_store()
        engine.ssn.retire_store()
        assert ssn >= 1
        svw = engine.ssn.retire
        assert not engine.must_reexecute(0x4000, 8, svw)


class TestDrain:
    def test_drain_clears_ssbf_and_runs_hooks(self):
        engine = SVWEngine(SVWConfig(ssn_bits=4))
        cleared = []
        engine.on_drain.append(lambda: cleared.append(True))
        for _ in range(15):
            ssn = engine.ssn.dispatch_store()
            engine.record_store(0x1000, 8, ssn)
            engine.ssn.retire_store()
        assert engine.ssn.wrap_pending
        engine.drain()
        assert cleared == [True]
        assert not engine.must_reexecute(0x1000, 8, engine.ssn.retire)
