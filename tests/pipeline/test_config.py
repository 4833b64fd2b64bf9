"""Tests for machine configuration validation and derivation."""

import pytest

from repro.core.svw import SVWConfig
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide, four_wide


class TestFactories:
    def test_eight_wide_matches_paper(self):
        config = eight_wide()
        assert (config.rob_size, config.lq_size, config.sq_size) == (512, 128, 64)
        assert (config.int_issue, config.load_issue, config.store_issue) == (5, 2, 2)
        assert config.iq_size == 200 and config.num_regs == 448

    def test_four_wide_matches_paper(self):
        config = four_wide()
        assert (config.rob_size, config.lq_size, config.sq_size) == (128, 32, 16)
        assert (config.int_issue, config.load_issue, config.store_issue) == (3, 1, 1)

    def test_derive_overrides(self):
        config = eight_wide().derive("x", store_issue=1)
        assert config.store_issue == 1
        assert config.name == "x"


class TestValidation:
    def test_nlq_requires_rex(self):
        with pytest.raises(ValueError):
            MachineConfig(name="bad", lsu=LSUKind.NLQ)

    def test_rle_requires_rex(self):
        with pytest.raises(ValueError):
            MachineConfig(name="bad", rle=True)

    def test_svw_only_requires_svw(self):
        with pytest.raises(ValueError):
            MachineConfig(name="bad", lsu=LSUKind.NLQ, rex_mode=RexMode.SVW_ONLY)


class TestSerialization:
    def test_from_dict_refuses_a_field_the_config_lacks(self):
        """A config dict of another layout (an older or newer peer) fails
        loudly instead of silently dropping the field."""
        payload = eight_wide().to_dict()
        payload["retired_knob"] = True
        with pytest.raises(TypeError, match="retired_knob"):
            MachineConfig.from_dict(payload)


class TestCommitDepth:
    def test_baseline_depth(self):
        assert eight_wide().commit_depth == 1

    def test_rex_adds_stages(self):
        config = eight_wide(
            "r", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2
        )
        assert config.commit_depth == 3

    def test_svw_adds_one_more(self):
        config = eight_wide(
            "r", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
            svw=SVWConfig(),
        )
        assert config.commit_depth == 4

    def test_perfect_rex_is_free(self):
        config = eight_wide("p", lsu=LSUKind.NLQ, rex_mode=RexMode.PERFECT)
        assert config.commit_depth == 1
