"""Property-based tests of the SVW core (hypothesis).

The central invariant: the SSBF is a *conservative* map -- its entry for
any address is an upper bound on the SSN of the last store that wrote a
conflicting address.  From that, the filter test is sound: a negative test
("entry <= ld.SVW") proves no store inside the load's vulnerability window
touched the address.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ssbf import make_ssbf
from repro.core.ssn import SSNState
from repro.core.svw import SVWEngine

_ADDRS = st.integers(min_value=0, max_value=1 << 20).map(lambda a: a * 4)
_SIZES = st.sampled_from([4, 8])
_KINDS = st.sampled_from(["simple", "dual", "infinite", "banked"])


def _words(addr, size):
    addr &= ~(size - 1)
    return {addr & ~3, (addr + size - 1) & ~3 if size == 8 else addr & ~3}


@st.composite
def _store_streams(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return [
        (draw(_ADDRS), draw(_SIZES)) for _ in range(n)
    ]


class TestSSBFConservative:
    @given(kind=_KINDS, stream=_store_streams(), probe=_ADDRS, probe_size=_SIZES)
    @settings(max_examples=150, deadline=None)
    def test_entry_is_upper_bound(self, kind, stream, probe, probe_size):
        """SSBF[addr] >= SSN of every store overlapping addr."""
        ssbf = make_ssbf(kind)
        probe = probe & ~(probe_size - 1)
        probe_words = _words(probe, probe_size)
        true_last = 0
        for ssn, (addr, size) in enumerate(stream, start=1):
            addr &= ~(size - 1)
            ssbf.update(addr, size, ssn)
            if _words(addr, size) & probe_words:
                true_last = ssn
        assert ssbf.lookup(probe, probe_size) >= true_last

    @given(kind=_KINDS, stream=_store_streams())
    @settings(max_examples=60, deadline=None)
    def test_flash_clear_resets_everything(self, kind, stream):
        ssbf = make_ssbf(kind)
        for ssn, (addr, size) in enumerate(stream, start=1):
            ssbf.update(addr & ~(size - 1), size, ssn)
        ssbf.flash_clear()
        for addr, size in stream:
            assert ssbf.lookup(addr & ~(size - 1), size) == 0


class TestFilterSoundness:
    @given(stream=_store_streams(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_negative_test_implies_no_window_conflict(self, stream, data):
        """If the filter says 'skip', no store in the window conflicted."""
        engine = SVWEngine()
        # A load dispatches at a random point in the store stream.
        dispatch_at = data.draw(
            st.integers(min_value=0, max_value=len(stream)), label="dispatch_at"
        )
        probe = data.draw(_ADDRS, label="probe")
        probe_size = data.draw(_SIZES, label="probe_size")
        probe = probe & ~(probe_size - 1)
        probe_words = _words(probe, probe_size)

        load_svw = None
        conflicted_in_window = False
        for i, (addr, size) in enumerate(stream):
            if i == dispatch_at:
                load_svw = engine.ssn.retire
            addr &= ~(size - 1)
            ssn = engine.ssn.dispatch_store()
            engine.record_store(addr, size, ssn)
            engine.ssn.retire_store()
            if i >= dispatch_at and _words(addr, size) & probe_words:
                conflicted_in_window = True
        if load_svw is None:
            load_svw = engine.ssn.retire

        if not engine.must_reexecute(probe, probe_size, load_svw):
            assert not conflicted_in_window, (
                "filter skipped a load whose window contained a conflict"
            )


class TestSSNProperties:
    @given(
        ops=st.lists(
            st.sampled_from(["dispatch", "retire", "squash"]),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_counters_stay_consistent(self, ops):
        """retire <= rename always; occupancy is rename - retire."""
        ssn = SSNState(bits=None)
        occupancy = 0
        for op in ops:
            if op == "dispatch":
                ssn.dispatch_store()
                occupancy += 1
            elif op == "retire" and occupancy:
                ssn.retire_store()
                occupancy -= 1
            elif op == "squash":
                keep = occupancy // 2
                ssn.squash_to(keep)
                occupancy = keep
            assert ssn.retire <= ssn.rename
            assert ssn.rename - ssn.retire == occupancy
