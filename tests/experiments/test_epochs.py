"""The code epochs of :mod:`repro.fingerprint` key every cache.

After a bump of either epoch nothing filled before it may be served: a
result store misses, a resubmitted campaign gets a new id, and a trace
cache misses after a trace-epoch bump (a model-epoch bump leaves traces
valid, so it still hits).  Each test bumps an epoch in place, as a
commit that changes the model or a generator would.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro import fingerprint
from repro.deps.storesets import StoreSets
from repro.experiments import CostModel, ResultStore, SerialBackend, matrix_spec
from repro.experiments.scheduler import Scheduler
from repro.experiments.traces import TraceProvider
from repro.harness.cli import main
from repro.harness.configs import fig5_configs
from repro.pipeline import processor
from repro.workloads.registry import resolve_workload, workload_key
from repro.workloads.trace_cache import TraceCache

EPOCHS = ["MODEL_EPOCH", "TRACE_EPOCH"]
N_INSTS = 1500


def bump(monkeypatch, epoch: str) -> None:
    monkeypatch.setattr(fingerprint, epoch, getattr(fingerprint, epoch) + 1)


@pytest.fixture(scope="module")
def cells():
    spec = matrix_spec("fig5", fig5_configs(), ["gcc"], n_insts=N_INSTS)
    return spec.cells()


@pytest.mark.parametrize("epoch", EPOCHS)
def test_result_store_misses_after_a_bump(tmp_path, monkeypatch, cells, epoch):
    request = cells[0]
    store = ResultStore(tmp_path / "store")
    (stats,) = SerialBackend().run([request])
    store.save(request, stats)
    assert store.load(request).fingerprint() == stats.fingerprint()
    assert store.fsck().ok
    bump(monkeypatch, epoch)
    assert store.load(request) is None
    # The stranded cell is no longer clean: fsck reports it, --fix removes it.
    report = store.fsck()
    assert (report.scanned, report.clean, len(report.orphaned)) == (1, 0, 1)
    assert not report.ok
    assert store.fsck(fix=True).repaired == 1
    rescan = store.fsck()
    assert rescan.ok and rescan.scanned == 0 and len(store) == 0


@pytest.mark.parametrize("epoch, hits", [("MODEL_EPOCH", 1), ("TRACE_EPOCH", 0)])
def test_trace_cache_misses_only_after_a_trace_bump(tmp_path, monkeypatch, epoch, hits):
    workload = resolve_workload("gcc")
    cache = TraceCache(tmp_path / "traces")
    data = TraceProvider(cache).encoded(workload, N_INSTS)
    before = workload_key(workload, N_INSTS)
    bump(monkeypatch, epoch)
    provider = TraceProvider(cache)
    assert provider.encoded(workload, N_INSTS) == data
    assert (provider.disk_hits, provider.generations) == (hits, 1 - hits)
    assert (workload_key(workload, N_INSTS) == before) == bool(hits)


@pytest.mark.parametrize("epoch", EPOCHS)
def test_resubmitted_campaign_gets_a_new_id(monkeypatch, cells, epoch):
    scheduler = Scheduler(CostModel())
    first, _ = scheduler.submit("fig5", cells)
    again, known = scheduler.submit("fig5", cells)
    assert known and again.id == first.id
    bump(monkeypatch, epoch)
    resubmitted, known = scheduler.submit("fig5", cells)
    assert not known and resubmitted.id != first.id
    assert not set(resubmitted.fingerprints) & set(first.fingerprints)


def test_cli_cache_dir_after_a_model_change_matches_a_cold_run(tmp_path, monkeypatch):
    """Two ``fig5 --cache-dir S`` runs with a model change and its epoch
    bump between them: the second writes what a run without a cache
    writes, not the old model's results."""
    sweep = ["fig5", "--benchmarks", "gcc,perl.diffmail", "--insts", "3000", "--quiet"]
    cache = ["--cache-dir", str(tmp_path / "S")]

    def run(name: str, *extra: str) -> dict:
        path = tmp_path / name
        assert main([*sweep, *extra, "--json", str(path)]) == 0
        return json.loads(path.read_text())

    old = run("old.json", *cache)
    # The model change: the store-set tables clear every 64 accesses.
    monkeypatch.setattr(processor, "StoreSets", functools.partial(StoreSets, clear_interval=64))
    bump(monkeypatch, "MODEL_EPOCH")
    cached = run("cached.json", *cache)
    cold = run("cold.json")
    assert cold != old
    assert cached == cold
