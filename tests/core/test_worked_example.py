"""The paper's Figure 4 worked example, step by step.

One dynamic load's SVW life: dispatch (window establishment), execution
(forwarding shrinks the window), conflicting store retirement (SSBF
update), and the re-execution filter test.  Part (a) ends in "re-execute?
Yes"; part (b) -- where the load collides only with a store older than its
forwarding store -- ends in "re-execute? No".
"""

import pytest

from repro.core.svw import SVWConfig, SVWEngine

# Four distinct addresses; chosen not to alias in a 512-entry SSBF.
ADDR_A, ADDR_B, ADDR_C, ADDR_D = 0x1000, 0x2008, 0x3010, 0x4018


@pytest.fixture
def engine():
    """An SVW engine whose history has reached SSN_RETIRE = 62."""
    engine = SVWEngine(SVWConfig())
    for _ in range(62):
        engine.ssn.dispatch_store()
        engine.ssn.retire_store()
    assert engine.ssn.retire == 62
    return engine


def dispatch_window(engine):
    """Dispatch stores 63..66, the load, then store 67 (Figure 4 LSQ)."""
    ssns = {}
    for number in (63, 64, 65, 66):
        ssns[number] = engine.ssn.dispatch_store()
        assert ssns[number] == number
    load_svw = engine.ssn.retire  # snapshot 1: ld.SVW = SSN_RETIRE = 62
    ssns[67] = engine.ssn.dispatch_store()
    return ssns, load_svw


def test_snapshot1_dispatch_establishes_window(engine):
    _, load_svw = dispatch_window(engine)
    assert load_svw == 62  # vulnerable to every store with SSN > 62


def test_figure_4a_load_must_reexecute(engine):
    """Store 66 -- younger than the forwarding store 65 -- writes A."""
    _, load_svw = dispatch_window(engine)

    # Snapshot 2: store 63 (addr C) retires; the load executes, forwarding
    # from store 65 (addr A), shrinking its window to 65.
    engine.record_store(ADDR_C, 8, 63)
    engine.ssn.retire_store()
    load_svw = engine.svw_after_forward(load_svw, 65)
    assert load_svw == 65

    # Snapshot 3: stores 64 (addr D), 65 (addr A) and 66 -- which resolved
    # to address A, a violation -- retire and update the SSBF.
    for ssn, addr in ((64, ADDR_D), (65, ADDR_A), (66, ADDR_A)):
        engine.record_store(addr, 8, ssn)
        engine.ssn.retire_store()

    # Snapshot 4: SSBF[A] = 66 > ld.SVW = 65 -> re-execute?  Yes.
    assert engine.must_reexecute(ADDR_A, 8, load_svw)


def test_figure_4b_load_skips_reexecution(engine):
    """Store 64 -- older than the forwarding store 65 -- writes A instead:
    the load is not vulnerable to stores 65 and older."""
    _, load_svw = dispatch_window(engine)

    engine.record_store(ADDR_C, 8, 63)
    engine.ssn.retire_store()
    load_svw = engine.svw_after_forward(load_svw, 65)

    for ssn, addr in ((64, ADDR_A), (65, ADDR_A), (66, ADDR_D)):
        engine.record_store(addr, 8, ssn)
        engine.ssn.retire_store()

    # SSBF[A] = 65 (store 65 retired last to A); 65 > 65 is false -> skip.
    assert not engine.must_reexecute(ADDR_A, 8, load_svw)


def test_figure_4a_weak_upd_mutant_skips_reexecution(monkeypatch):
    """The fuzz-smoke mutant (``SVW_FUZZ_WEAK_UPD=1``) widens the Figure 4a
    window past store 66, so the load that must re-execute is excused --
    the missed violation the differential oracle has to catch."""
    monkeypatch.setenv("SVW_FUZZ_WEAK_UPD", "1")
    engine = SVWEngine(SVWConfig())
    for _ in range(62):
        engine.ssn.dispatch_store()
        engine.ssn.retire_store()
    _, load_svw = dispatch_window(engine)
    engine.record_store(ADDR_C, 8, 63)
    engine.ssn.retire_store()
    load_svw = engine.svw_after_forward(load_svw, 65)
    assert load_svw == 67  # SSN_RENAME, not the forwarding store's 65
    for ssn, addr in ((64, ADDR_D), (65, ADDR_A), (66, ADDR_A)):
        engine.record_store(addr, 8, ssn)
        engine.ssn.retire_store()
    assert not engine.must_reexecute(ADDR_A, 8, load_svw)


def test_figure_4b_without_update_reexecutes(engine):
    """Without the forward update (or without SVW at all), the Figure 4b
    load re-executes -- the paper notes 'Without SVW, this load
    re-executes'."""
    _, load_svw = dispatch_window(engine)
    engine.record_store(ADDR_C, 8, 63)
    engine.ssn.retire_store()
    # No svw_after_forward: window anchor stays at 62.
    for ssn, addr in ((64, ADDR_A), (65, ADDR_A), (66, ADDR_D)):
        engine.record_store(addr, 8, ssn)
        engine.ssn.retire_store()
    assert engine.must_reexecute(ADDR_A, 8, load_svw)


@pytest.mark.parametrize("update_on_forward", [True, False])
def test_simulator_runs_this_update_rule(
    monkeypatch, spill_fill_trace, update_on_forward
):
    """The ``+UPD`` rule above is the one the processor applies: every
    forwarding load's window goes through ``svw_after_forward``, which
    leaves it unchanged under ``+SVW-UPD``."""
    from repro.harness.configs import fig5_configs
    from repro.pipeline.processor import Processor

    calls = []
    rule = SVWEngine.svw_after_forward

    def counted(self, current_svw, store_ssn):
        updated = rule(self, current_svw, store_ssn)
        calls.append(updated > current_svw)
        return updated

    monkeypatch.setattr(SVWEngine, "svw_after_forward", counted)
    name = "+SVW+UPD" if update_on_forward else "+SVW-UPD"
    Processor(fig5_configs()[name], spill_fill_trace, validate=True).run()
    assert calls
    assert all(calls) if update_on_forward else not any(calls)
