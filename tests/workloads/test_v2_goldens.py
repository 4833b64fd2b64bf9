"""Golden fingerprints for the epoch-v2 trace identity.

The v2 block-sampled generator has no independent reference
implementation, so its trace identity is pinned by golden
``SimStats.fingerprint()`` values, one per LSU kind x re-execution mode,
each required to be identical with the skip-ahead scheduler on and off.  Any change to the generator's draw sequence, the trace columns, the
statistics, or the timing model moves these fingerprints and must be a
deliberate epoch bump -- regenerate via the loop below and say so in the
changelog.

The ``v2-goldens`` CI gate runs this file.
"""

from __future__ import annotations

import pytest

from repro.core.svw import SVWConfig
from repro.pipeline.config import LSUKind, MachineConfig, RexMode, eight_wide
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import TRACE_EPOCH, generate_trace

N = 6000
WARMUP = 500
WORKLOAD = "gcc"

#: ``gcc`` @ 6000 insts, warmup 500, per ``LSUKind.value/RexMode.value``.
GOLDEN_FINGERPRINTS = {
    "conventional/none": "643d584d883d288365a314e19eab0ad9e632c6f35dbd4c506bed48859f3a7601",
    "conventional/perfect": "49d054f76eeac41d931e38fb05f09e4b9d63f7a6863b85dccda70a1aa7fde1a9",
    "conventional/reexecute": "3882c87ab24ac78b9bf65194182f04f21a0b1591d8428cd8ddbcadc835cf50a8",
    "conventional/svw_only": "04a40c3e2461dd99d0ace444ba73b8df87708ade2f8b1897d363ce19822e1489",
    "nlq/perfect": "25c822c02a6c60a76526c885a0e625be2ce9591dd1951fb96e53a95c4392dc82",
    "nlq/reexecute": "e5861c4044a31e14dcbb03117edad1b2728b264970d775494b94aaaa7b44cf9d",
    "nlq/svw_only": "6e21803abceee772f9e8be2349ada950c2d046df6f0feba80f13eef14a535782",
    "ssq/perfect": "052a3d39fdcd8f1213f78e26b49f38740c9e506e72132808d8ea868ac5bf32d0",
    "ssq/reexecute": "e9561c81a68f51c11992c7c366bd99670c77b680f47a79d23d2aae5a8a0de7c4",
    "ssq/svw_only": "6a9c2810327743501ab68e66ee08884ede6688c8776f4650af6f4c76b367cc93",
}


def matrix_configs() -> dict[str, MachineConfig]:
    """Every valid LSUKind x RexMode cell (NONE is conventional-only)."""
    out: dict[str, MachineConfig] = {}
    for lsu in LSUKind:
        extra = {"load_latency": 2} if lsu is LSUKind.SSQ else {"store_issue": 2}
        for rex in RexMode:
            if rex is RexMode.NONE and lsu is not LSUKind.CONVENTIONAL:
                continue
            name = f"{lsu.value}/{rex.value}"
            kwargs: dict = dict(extra)
            if rex is not RexMode.NONE:
                kwargs.update(rex_mode=rex, rex_stages=2)
            if rex in (RexMode.REEXECUTE, RexMode.SVW_ONLY):
                kwargs["svw"] = SVWConfig()
            out[name] = eight_wide(name.replace("/", "-"), lsu=lsu, **kwargs)
    return out


@pytest.fixture(scope="module")
def v2_trace():
    return generate_trace(spec_profile(WORKLOAD), N)


def test_trace_epoch_is_v2():
    assert TRACE_EPOCH == 2


def test_matrix_covers_goldens():
    assert sorted(matrix_configs()) == sorted(GOLDEN_FINGERPRINTS)


@pytest.mark.parametrize("skip_ahead", [True, False], ids=["skip", "no-skip"])
@pytest.mark.parametrize("cell", sorted(GOLDEN_FINGERPRINTS))
def test_v2_golden_fingerprint(cell, skip_ahead, v2_trace):
    config = matrix_configs()[cell]
    stats = Processor(config, v2_trace, warmup=WARMUP, skip_ahead=skip_ahead).run()
    assert stats.fingerprint() == GOLDEN_FINGERPRINTS[cell], (
        f"{cell}: v2 golden fingerprint moved -- if this is a deliberate "
        f"trace-identity or model change, bump the epoch and regenerate"
    )
