"""Golden equivalence of the idle-cycle skip-ahead scheduler.

The skip-ahead scheduler jumps the clock over provably idle cycles and
replays their stall-counter increments arithmetically.  These tests pin
the core guarantee: for every LSU kind x re-execution mode, a run with
skip-ahead enabled produces a bit-identical ``SimStats`` fingerprint to
the cycle-by-cycle run -- including the per-cycle stall counters -- and
the execution backends inherit the same results.
"""

from __future__ import annotations

import pytest

from repro.core.svw import SVWConfig
from repro.experiments.backends import SerialBackend
from repro.experiments.spec import WorkloadSpec, matrix_spec
from repro.experiments.run import run_experiment
from repro.harness.configs import NLQ_REX_STAGES, SSQ_REX_STAGES, nlqsm_configs
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide
from repro.pipeline.processor import Processor

#: Every valid LSUKind x RexMode combination (config validation forbids
#: non-conventional LSUs and RLE without a re-execution mode, and
#: SVW_ONLY without an SVW config).
CASES: dict[str, MachineConfig] = {}


def _case(name: str, **overrides) -> None:
    CASES[name] = eight_wide(name, **overrides)


_case("conventional-none")
for kind, stages in ((LSUKind.CONVENTIONAL, 2), (LSUKind.NLQ, NLQ_REX_STAGES), (LSUKind.SSQ, SSQ_REX_STAGES)):
    base = dict(lsu=kind, store_issue=2)
    _case(f"{kind.value}-reexecute", rex_mode=RexMode.REEXECUTE, rex_stages=stages, **base)
    _case(
        f"{kind.value}-reexecute-svw",
        rex_mode=RexMode.REEXECUTE,
        rex_stages=stages,
        svw=SVWConfig(),
        **base,
    )
    _case(f"{kind.value}-perfect", rex_mode=RexMode.PERFECT, **base)
    _case(f"{kind.value}-svw-only", rex_mode=RexMode.SVW_ONLY, svw=SVWConfig(), **base)
# RLE exercises the integration table plus the elongated rex pipe.
_case("rle-reexecute-svw", rle=True, rex_mode=RexMode.REEXECUTE, rex_stages=4, svw=SVWConfig())


@pytest.mark.parametrize("name", sorted(CASES))
def test_skip_ahead_bit_identical(name, small_gcc_trace):
    config = CASES[name]
    fast = Processor(config, small_gcc_trace, validate=True, warmup=1000).run()
    slow = Processor(
        config, small_gcc_trace, validate=True, warmup=1000, skip_ahead=False
    ).run()
    assert fast.fingerprint() == slow.fingerprint(), (
        f"{name}: skip-ahead changed results\nfast: {fast}\nslow: {slow}"
    )


def test_skip_ahead_bit_identical_with_invalidations(small_gcc_trace):
    """NLQ-SM's synthetic invalidations are a wake-up of their own."""
    config = nlqsm_configs(200)["invalidations"]
    fast = Processor(config, small_gcc_trace, validate=True, warmup=1000).run()
    slow = Processor(
        config, small_gcc_trace, validate=True, warmup=1000, skip_ahead=False
    ).run()
    assert fast.wakeup_causes.get("invalidation", 0) > 0
    assert fast.fingerprint() == slow.fingerprint()


def test_serial_backend_matches_unskipped_run(small_gcc_trace):
    """Backend results (skip-ahead on by default) == cycle-by-cycle runs."""
    spec = matrix_spec(
        "skip-equiv",
        {"baseline": CASES["conventional-none"], "nlq+svw": CASES["nlq-reexecute-svw"]},
        [WorkloadSpec.from_trace("gcc-small", small_gcc_trace)],
        n_insts=len(small_gcc_trace),
        warmup=1000,
    )
    result = run_experiment(spec, backend=SerialBackend())
    for label, config in spec.configs:
        backend_stats = result.stats["gcc-small"][label]
        direct = Processor(
            config, small_gcc_trace, warmup=1000, skip_ahead=False
        ).run()
        assert backend_stats.fingerprint() == direct.fingerprint()


def test_skip_ahead_drain_into_empty_rob(small_gcc_trace):
    """Regression: a wrap-pending store that sets ``drain_wait`` while the
    ROB is already empty (here: behind a long BTB-misfetch redirect) must
    wake the skip-ahead scheduler -- it used to jump straight to the
    watchdog deadline because no event candidate covered the drain.
    """
    from repro.isa.coltrace import ColumnTrace
    from repro.isa.inst import DynInst
    from repro.isa.ops import OpClass

    insts = []
    # 15 stores exhaust a 4-bit SSN space (wrap pending at SSN 15).
    for i in range(15):
        insts.append(
            DynInst(
                seq=i,
                pc=0x100 + 4 * i,
                op=OpClass.STORE,
                addr=0x1000 + 8 * i,
                size=4,
                store_value=i + 1,
            )
        )
    # First-seen taken branch: BTB miss redirects the front end; with a
    # long penalty the stores all commit and the ROB drains meanwhile.
    insts.append(DynInst(seq=15, pc=0x200, op=OpClass.BRANCH, taken=True))
    # First post-redirect instruction is the wrap-triggering store.
    insts.append(
        DynInst(seq=16, pc=0x300, op=OpClass.STORE, addr=0x2000, size=4, store_value=99)
    )
    insts.append(DynInst(seq=17, pc=0x304, op=OpClass.IALU, dst_reg=1))
    trace = ColumnTrace.from_insts("drain-into-empty-rob", insts)
    trace.validate()
    config = eight_wide(
        "drain-regression",
        lsu=LSUKind.NLQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=NLQ_REX_STAGES,
        store_issue=2,
        svw=SVWConfig(ssn_bits=4),
        btb_penalty=200,
    )
    slow = Processor(config, trace, validate=True, skip_ahead=False).run()
    assert slow.ssn_drains >= 1  # the scenario actually exercises a drain
    fast = Processor(config, trace, validate=True).run()  # must not watchdog
    assert fast.fingerprint() == slow.fingerprint()


class TestCoverageReport:
    """The skip-ahead coverage counters: observability without identity."""

    def test_counters_populate_and_stay_out_of_the_fingerprint(
        self, small_gcc_trace
    ):
        config = CASES["nlq-reexecute-svw"]
        fast = Processor(config, small_gcc_trace, validate=True).run()
        slow = Processor(
            config, small_gcc_trace, validate=True, skip_ahead=False
        ).run()
        # The scheduler visibly worked...
        assert fast.skip_jumps > 0
        assert fast.skipped_cycles >= fast.skip_jumps
        assert sum(fast.wakeup_causes.values()) == fast.skip_jumps
        assert set(fast.wakeup_causes) <= {
            "completion", "commit", "rex_port", "rex_inflight",
            "fetch_resume", "invalidation", "watchdog",
        }
        # ...the unskipped run records none of it...
        assert (slow.skip_jumps, slow.skipped_cycles, slow.wakeup_causes) == (0, 0, {})
        # ...and the fingerprint sees neither (bit-identity is architectural).
        assert fast.fingerprint() == slow.fingerprint()

    def test_counters_round_trip_through_dict(self, small_gcc_trace):
        from repro.pipeline.stats import SimStats

        stats = Processor(CASES["conventional-none"], small_gcc_trace).run()
        clone = SimStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.wakeup_causes == stats.wakeup_causes
        # Pre-skip-report payloads (no observability keys) still load.
        legacy = {
            key: value
            for key, value in stats.to_dict().items()
            if key not in SimStats.OBSERVABILITY_FIELDS
        }
        revived = SimStats.from_dict(legacy)
        assert revived.fingerprint() == stats.fingerprint()
        assert revived.skip_jumps == 0

    def test_summary_mentions_skip_coverage(self, small_gcc_trace):
        stats = Processor(CASES["conventional-none"], small_gcc_trace).run()
        assert "skip-ahead:" in stats.summary()
        assert "wake-ups:" in stats.summary()


def test_watchdog_is_configurable(small_gcc_trace):
    """The deadlock watchdog threshold is a MachineConfig field now."""
    assert CASES["conventional-none"].watchdog_cycles == 100_000
    # Tight but above the workload's longest commit gap (a cold memory
    # miss stalls commit for ~memory_latency cycles).
    tight = CASES["conventional-none"].derive("tight-watchdog", watchdog_cycles=400)
    # A tight-but-sufficient watchdog must not false-trip on a normal run,
    # with or without skip-ahead (the skip path caps jumps at the
    # watchdog deadline so a real deadlock still raises identically).
    for skip in (True, False):
        stats = Processor(tight, small_gcc_trace, skip_ahead=skip).run()
        assert stats.committed == len(small_gcc_trace)
