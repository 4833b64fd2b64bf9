"""Golden fingerprints for the kernel tracer's traces.

Kernel traces are built from a ``DynInst`` list by the functional tracer
(``ColumnTrace.from_insts``) rather than by the column-native generator,
so the v2 goldens do not cover that construction path.  These values pin
it from both sides:

- the ``SimStats.fingerprint()`` of the default ``spill_fill`` kernel on
  each benchmark LSU configuration, run with ``validate=True`` so every
  committed load is also checked against golden execution;
- the ``WorkloadSpec`` fingerprint of a fixed kernel trace, which hashes
  the ``DynInst`` view (``registry._trace_digest``) and keys the result
  store.

Either value moving means a kernel trace or its digest changed; like the
v2 goldens, that must be a deliberate, changelogged break.

The ``v2-goldens`` CI gate runs this file.
"""

from __future__ import annotations

import pytest

from repro.harness.bench import bench_configs
from repro.pipeline.processor import Processor
from repro.workloads.kernels import kernel_trace
from repro.workloads.registry import WorkloadSpec

#: ``kernel_trace("spill_fill")`` (default size), ``validate=True``, per
#: ``bench_configs()`` LSU kind.
KERNEL_FINGERPRINTS = {
    "conventional": "7c98175f1e082b849dca9ad22f463b1e4d5387e9b15f47581cf202f155e6b0ea",
    "nlq": "5ced1b4a981028436c160d7f903b50800c5ef29da40d308c91497b0125e62a2a",
    "ssq": "0047d0daadc7deafe1200c9130de2054af765dbf9831da4be5034000983d8644",
}

#: ``WorkloadSpec.from_trace("k", kernel_trace("spill_fill", n_frames=5))``.
FIXED_SPEC_FINGERPRINT = "4abbdf788410e154b300f84632cfeaa7b7d97ed3fd18ce00616b061bf37eeffb"


@pytest.fixture(scope="module")
def spill_fill_default():
    return kernel_trace("spill_fill")


def test_goldens_cover_bench_configs():
    assert sorted(KERNEL_FINGERPRINTS) == sorted(bench_configs())


@pytest.mark.parametrize("kind", sorted(KERNEL_FINGERPRINTS))
def test_kernel_golden_fingerprint(kind, spill_fill_default):
    _, config = bench_configs()[kind]
    stats = Processor(config, spill_fill_default, validate=True).run()
    assert stats.fingerprint() == KERNEL_FINGERPRINTS[kind], kind


def test_fixed_kernel_spec_fingerprint():
    trace = kernel_trace("spill_fill", n_frames=5)
    assert WorkloadSpec.from_trace("k", trace).fingerprint() == FIXED_SPEC_FINGERPRINT
