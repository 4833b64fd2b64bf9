"""Every SSBF organization through the one probe path.

Stores update the SSBF through ``SVWEngine.record_store`` and marked loads
test it through ``SVWEngine.must_reexecute``, whatever the table's
organization.  For every LSU kind, re-execution mode and SSBF organization
-- including the edge contracts of the probe path: SSN-wrap drains that
flash-clear the table mid-run, atomic (non-speculative) updates, SVW as a
replacement for re-execution, dual/banked tables and a disabled filter --
this suite pins that:

- the filter is safe: with ``validate=True`` every committed load value
  matches the golden functional execution;
- columns rebuilt from the trace's ``DynInst`` view give the statistics
  fingerprint of the generated columns, bit for bit;
- the skip-ahead scheduler leaves the fingerprint bit-identical to the
  cycle-by-cycle run;
- the filter's verdicts, as ``SimStats`` counts them, are consistent: it
  excuses no more loads than were marked, an enabled filter excuses some,
  and a disabled one none.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.svw import SVWConfig
from repro.harness.goldens import bench_configs
from repro.pipeline.config import LSUKind, RexMode, eight_wide
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace
from tests.isa.test_coltrace import rebuilt_from_insts

N = 4000

#: Beyond the bench trio: the probe path's edge contracts and the
#: non-simple organizations.
EXTRA_CONFIGS = {
    "svw-only": eight_wide(
        "svw-only", lsu=LSUKind.NLQ, rex_mode=RexMode.SVW_ONLY, rex_stages=2,
        store_issue=2, svw=SVWConfig(),
    ),
    "tiny-ssn": eight_wide(
        "tiny-ssn", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssn_bits=6),
    ),
    "atomic": eight_wide(
        "atomic", lsu=LSUKind.SSQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        load_latency=2, svw=SVWConfig(speculative_updates=False),
    ),
    "dual-ssbf": eight_wide(
        "dual-ssbf", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssbf_kind="dual"),
    ),
    "banked-ssbf": eight_wide(
        "banked-ssbf", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(ssbf_kind="banked"),
    ),
    "disabled-svw": eight_wide(
        "disabled-svw", lsu=LSUKind.NLQ, rex_mode=RexMode.REEXECUTE, rex_stages=2,
        store_issue=2, svw=SVWConfig(enabled=False),
    ),
}

ALL_CONFIGS = {
    **{kind: config for kind, (_, config) in bench_configs().items()},
    **EXTRA_CONFIGS,
}


@pytest.fixture(scope="module")
def traces():
    """``traces(workload)`` -> (generated columns, columns rebuilt from its
    ``DynInst`` view), built once and replayed by every config."""

    @functools.cache
    def build(workload):
        trace = generate_trace(spec_profile(workload), N)
        return trace, rebuilt_from_insts(trace)

    return build


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
@pytest.mark.parametrize("workload", ["gcc", "mcf"])
def test_probe_path_safe_and_consistent(name, workload, traces):
    config = ALL_CONFIGS[name]
    trace, rebuilt = traces(workload)
    columns = Processor(config, trace, validate=True, warmup=500)
    objects = Processor(config, rebuilt, validate=True, warmup=500)
    slow = Processor(config, trace, validate=True, warmup=500, skip_ahead=False)
    stats = columns.run()
    fingerprint = stats.fingerprint()
    assert objects.run().fingerprint() == fingerprint, name
    assert slow.run().fingerprint() == fingerprint, name
    if config.svw is None:
        return
    assert stats.filtered_loads <= stats.marked_loads, name
    assert (stats.filtered_loads > 0) == config.svw.enabled, name
