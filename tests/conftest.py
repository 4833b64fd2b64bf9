"""Shared fixtures: kernel traces and small synthetic traces are expensive
to build, so they are cached per session."""

from __future__ import annotations

import pytest

from repro.workloads.kernels import kernel_trace
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace


@pytest.fixture(scope="session")
def spill_fill_trace():
    return kernel_trace("spill_fill", n_frames=150)


@pytest.fixture(scope="session")
def sort_trace():
    return kernel_trace("insertion_sort", n=32)


@pytest.fixture(scope="session")
def small_gcc_trace():
    return generate_trace(spec_profile("gcc"), 4000)


@pytest.fixture(scope="session")
def small_vortex_trace():
    return generate_trace(spec_profile("vortex"), 4000)

