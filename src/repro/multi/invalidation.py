"""NLQ-SM: re-execution-checked inter-thread memory ordering (section 3.2).

The paper defines the mechanism but does not evaluate it ("our simulation
infrastructure does not execute shared-memory programs").  We provide the
mechanism -- banked SSBF, invalidation-as-asynchronous-store, window-wide
load marking -- plus a synthetic invalidation stream so its filtering cost
can be measured.  Invalidations are silent (no remote value), preserving
single-thread golden correctness; the stream stands in for the
shared-memory programs the paper does not run.
"""

from __future__ import annotations

from repro.core.svw import SVWConfig
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace


def nlqsm_config(invalidation_interval: int) -> MachineConfig:
    """NLQ with the banked SSBF organization and an invalidation stream."""
    return eight_wide(
        f"nlqsm-{invalidation_interval}",
        lsu=LSUKind.NLQ,
        rex_mode=RexMode.REEXECUTE,
        rex_stages=2,
        store_issue=2,
        svw=SVWConfig(ssbf_kind="banked"),
        invalidation_interval=invalidation_interval,
    )


def run_nlqsm_experiment(
    benchmark: str,
    n_insts: int = 20_000,
    invalidation_interval: int = 500,
    warmup: int | None = None,
) -> tuple[SimStats, SimStats]:
    """Run NLQ-SM with and without invalidation traffic.

    Returns ``(quiet, noisy)`` statistics; the delta between them is the
    re-execution cost of inter-thread ordering enforcement, post-SVW.
    """
    if warmup is None:
        warmup = n_insts // 4
    trace = generate_trace(spec_profile(benchmark), n_insts)
    quiet = Processor(nlqsm_config(0), trace, warmup=warmup).run()
    noisy = Processor(
        nlqsm_config(invalidation_interval), trace, warmup=warmup
    ).run()
    return quiet, noisy
