"""Sweeps shared by the experiments tests, each with its serial reference
results built once per session; every backend under test must reproduce
them.

- The service-tier sweep (remote, campaign, faults): fig5's first three
  configs over gcc and vortex at 1500 instructions.
- The LSU-family sweep (batch runner, session fleet): the bench's one
  config per LSU kind over gcc and bzip2 at 1200 instructions.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import SerialBackend, matrix_spec
from repro.harness.configs import fig5_configs
from repro.harness.goldens import bench_configs

INSTS = 1500
FAMILY_INSTS = 1200


def _small_spec(
    name="service-test", workloads=("gcc", "vortex"), n_configs=3, configs=None, **kwargs
):
    if configs is None:
        configs = dict(list(fig5_configs().items())[:n_configs])
    return matrix_spec(name, configs, list(workloads), n_insts=INSTS, **kwargs)


def _wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(interval)


@pytest.fixture(scope="session")
def small_spec():
    """``small_spec(name=, workloads=, n_configs=, configs=, **matrix_spec
    kwargs)``: a spec at the shared budget, fig5's first configs by default."""
    return _small_spec


@pytest.fixture(scope="session")
def spec(small_spec):
    return small_spec()


@pytest.fixture(scope="session")
def requests(spec):
    return spec.cells()


@pytest.fixture(scope="session")
def serial_stats(requests):
    """``SerialBackend`` results of ``requests``: the reference every
    backend must match.  Shared, so treat as read-only."""
    return SerialBackend().run(requests)


@pytest.fixture(scope="session")
def serial_fingerprints(serial_stats):
    return [s.fingerprint() for s in serial_stats]


@pytest.fixture(scope="session")
def wait_for():
    """``wait_for(predicate, timeout=30.0, interval=0.05, message=...)``:
    poll until ``predicate()`` holds or fail the test."""
    return _wait_for


@pytest.fixture(scope="session")
def family_spec():
    """One config per LSU kind (the bench set) over gcc and bzip2."""
    configs = {kind: config for kind, (_, config) in bench_configs().items()}
    return matrix_spec(
        "families", configs, ["gcc", "bzip2"], FAMILY_INSTS, baseline="conventional"
    )


@pytest.fixture(scope="session")
def family_serial(family_spec):
    """``SerialBackend`` results of ``family_spec``; read-only."""
    return SerialBackend().run(family_spec.cells())
