"""Tests for branch direction predictors and the BTB."""

import random

import pytest

from repro.frontend.btb import BTB
from repro.frontend.direction import HybridPredictor


class TestHybrid:
    def test_learns_bias(self):
        predictor = HybridPredictor(1024)
        for _ in range(4):
            predictor.predict_and_update(0x100, True)
        assert predictor.predict_and_update(0x100, True)

    def test_hysteresis(self):
        predictor = HybridPredictor(1024)
        for _ in range(4):
            predictor.predict_and_update(0x100, True)
        predictor.predict_and_update(0x100, False)  # one anomaly
        assert predictor.predict_and_update(0x100, True)  # still predicts taken

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            HybridPredictor(1000)

    def test_chooser_picks_working_component(self):
        """Bimodal cannot learn T/NT alternation; gshare can, and the
        chooser moves to it."""
        predictor = HybridPredictor(4096)
        outcome = True
        for i in range(600):
            predictor.predict_and_update(0x300, outcome)
            outcome = not outcome
        # After warm-up the hybrid should track the alternation.
        hits = sum(
            predictor.predict_and_update(0x300, bool(i % 2)) for i in range(100)
        )
        assert hits > 90

    def test_biased_branches_near_perfect(self):
        predictor = HybridPredictor(8192)
        rng = random.Random(1)
        miss = 0
        for i in range(2000):
            taken = rng.random() < 0.95
            if not predictor.predict_and_update(0x40 + (i % 16) * 4, taken):
                if i > 500:
                    miss += 1
        assert miss / 1500 < 0.15


class TestBTB:
    def test_hit_after_allocate(self):
        btb = BTB(256, 2)
        assert not btb.lookup_and_update(0x400)
        assert btb.lookup_and_update(0x400)

    def test_lru_within_set(self):
        btb = BTB(4, 2)  # 2 sets x 2 ways
        set_stride = 2 * 4  # pcs mapping to the same set
        a, b, c = 0x0, set_stride, 2 * set_stride
        btb.lookup_and_update(a)
        btb.lookup_and_update(b)
        btb.lookup_and_update(a)  # refresh a
        btb.lookup_and_update(c)  # evicts b
        assert btb.lookup_and_update(a)
        assert not btb.lookup_and_update(b)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BTB(10, 3)
