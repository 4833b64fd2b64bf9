"""End-to-end correctness: every configuration commits golden state.

This is the repository's strongest check: whatever a machine speculates --
stale loads, missed forwarding, false eliminations, filtered
re-executions -- the committed load values and the final memory image must
equal the golden in-order functional execution.  The ``validate=True``
processor flag asserts per-load value equality at commit; this file adds
the final-memory check and sweeps configurations x workloads.
"""

import functools

import pytest

from repro.core.svw import SVWConfig
from repro.isa.golden import golden_execute
from repro.pipeline.config import LSUKind, RexMode, eight_wide, four_wide
from repro.pipeline.processor import Processor
from repro.workloads.kernels import KERNELS, kernel_trace
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

CONFIGS = {
    "baseline": eight_wide("baseline", store_issue=1),
    "nlq": eight_wide(
        "nlq", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2, store_issue=2
    ),
    "nlq+svw": eight_wide(
        "nlq+svw", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(),
    ),
    "ssq": eight_wide(
        "ssq", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2, load_latency=2
    ),
    "ssq+svw": eight_wide(
        "ssq+svw", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        load_latency=2, svw=SVWConfig(),
    ),
    "rle+svw": four_wide(
        "rle+svw", rle=True, rex_mode=RexMode.REEXECUTE, rex_stages=4, svw=SVWConfig()
    ),
    "rle-squ": four_wide(
        "rle-squ", rle=True, rex_mode=RexMode.REEXECUTE, rex_stages=4,
        svw=SVWConfig(), squash_reuse=False,
    ),
    "nlq+perfect": eight_wide(
        "nlq+perfect", lsu=LSUKind.NLQ, rex_mode=RexMode.PERFECT, store_issue=2
    ),
    "svw-only": eight_wide(
        "svw-only", lsu=LSUKind.NLQ, rex_mode=RexMode.SVW_ONLY, rex_stages=2,
        store_issue=2, svw=SVWConfig(),
    ),
    "tiny-ssn": eight_wide(
        "tiny-ssn", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssn_bits=6),
    ),
    "atomic-ssbf": eight_wide(
        "atomic-ssbf", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        load_latency=2, svw=SVWConfig(speculative_updates=False),
    ),
    "composed": eight_wide(
        "composed", lsu=LSUKind.SSQ, rle=True, rex_mode=RexMode.REEXECUTE,
        rex_stages=4, load_latency=2, svw=SVWConfig(),
    ),
}


@pytest.fixture(scope="module")
def golden_run():
    """``golden_run(workload)`` -> (trace, golden execution) of a kernel or
    a SPEC profile.  Each is built once and replayed by every config; the
    module's traces are freed when it ends."""

    @functools.cache
    def build(workload):
        if workload in KERNELS:
            trace = kernel_trace(workload)
        else:
            trace = generate_trace(spec_profile(workload), 5000)
        return trace, golden_execute(trace)

    return build


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_golden_equivalence(config_name, kernel, golden_run):
    trace, golden = golden_run(kernel)
    processor = Processor(CONFIGS[config_name], trace, validate=True)
    stats = processor.run()
    assert stats.committed == len(trace)
    assert processor.committed_memory == golden.memory, (
        f"{config_name} on {kernel}: final memory diverged from golden"
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("profile", ["gcc", "vortex", "twolf"])
def test_synthetic_golden_equivalence(config_name, profile, golden_run):
    trace, golden = golden_run(profile)
    processor = Processor(CONFIGS[config_name], trace, validate=True)
    stats = processor.run()
    assert stats.committed == len(trace)
    assert processor.committed_memory == golden.memory
