"""Unit tests for store sequence numbering (paper section 3, 3.6)."""

import pytest

from repro.core.ssn import SSNState


class TestBasicNumbering:
    def test_first_store_gets_ssn_one(self):
        ssn = SSNState()
        assert ssn.dispatch_store() == 1

    def test_ssns_are_monotonic(self):
        ssn = SSNState()
        values = [ssn.dispatch_store() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_retire_advances_retire_pointer(self):
        ssn = SSNState()
        ssn.dispatch_store()
        ssn.dispatch_store()
        ssn.retire_store()
        assert ssn.retire == 1
        assert ssn.rename == 2

    def test_rename_is_retire_plus_occupancy(self):
        """SSN_RENAME = SSN_RETIRE + SQ.OCCUPANCY (section 3)."""
        ssn = SSNState()
        for _ in range(10):
            ssn.dispatch_store()
        for _ in range(4):
            ssn.retire_store()
        assert ssn.rename == ssn.retire + 6

    def test_retire_beyond_rename_rejected(self):
        ssn = SSNState()
        ssn.dispatch_store()
        ssn.retire_store()
        with pytest.raises(RuntimeError):
            ssn.retire_store()


class TestSquash:
    def test_squash_rolls_rename_back(self):
        ssn = SSNState()
        for _ in range(8):
            ssn.dispatch_store()
        ssn.retire_store()
        ssn.squash_to(surviving_stores=3)
        assert ssn.rename == 4  # 1 retired + 3 surviving

    def test_squashed_ssns_are_reused(self):
        ssn = SSNState()
        ssn.dispatch_store()
        ssn.dispatch_store()
        ssn.squash_to(surviving_stores=0)
        assert ssn.dispatch_store() == 1

    def test_negative_occupancy_rejected(self):
        ssn = SSNState()
        with pytest.raises(ValueError):
            ssn.squash_to(-1)


class TestWrapAround:
    def test_infinite_width_never_wraps(self):
        ssn = SSNState(bits=None)
        for _ in range(100_000):
            ssn.dispatch_store()
            ssn.retire_store()
        assert not ssn.wrap_pending

    def test_wrap_pending_near_limit(self):
        ssn = SSNState(bits=4)  # wraps at 16
        for _ in range(14):
            ssn.dispatch_store()
            ssn.retire_store()
        assert not ssn.wrap_pending
        ssn.dispatch_store()
        assert ssn.wrap_pending

    def test_drain_resets_counters(self):
        ssn = SSNState(bits=4)
        for _ in range(15):
            ssn.dispatch_store()
            ssn.retire_store()
        assert ssn.wrap_pending
        ssn.drain()
        assert ssn.retire == 0
        assert ssn.rename == 0
        assert ssn.drains == 1
        assert not ssn.wrap_pending

    def test_drain_with_inflight_stores_rejected(self):
        """Drains require an empty pipeline (section 3.6, step i)."""
        ssn = SSNState(bits=4)
        ssn.dispatch_store()
        with pytest.raises(RuntimeError):
            ssn.drain()

    def test_too_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            SSNState(bits=3)

    def test_ssns_restart_at_one_after_drain(self):
        """SSN 0 stays reserved for "no store since the last clear"."""
        ssn = SSNState(bits=4)
        for _ in range(15):
            ssn.dispatch_store()
            ssn.retire_store()
        ssn.drain()
        assert ssn.dispatch_store() == 1
