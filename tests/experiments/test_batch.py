"""The sweep-execution subsystem: batch runner, shared traces, providers.

The contract under test is the PR's headline claim: every backend mode is
bit-identical to :class:`SerialBackend`, and trace generation runs at most
once per (workload, seed, n_insts) per sweep regardless of backend or
worker count.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    BatchRunner,
    CellExecutionError,
    ResultStore,
    SerialBackend,
    TraceProvider,
    make_backend,
    matrix_spec,
    run_experiment,
)
from repro.experiments import pool as pool_mod
from repro.experiments.spec import ExperimentBuilder, WorkloadSpec
from repro.harness.bench import bench_configs
from repro.harness.configs import fig5_configs
from repro.pipeline.config import LSUKind
from repro.workloads.kernels import kernel_trace
from repro.workloads.trace_cache import TraceCache, trace_key
from repro.workloads.spec2000 import spec_profile

INSTS = 1200


def lsu_family_configs():
    """One representative config family per LSU kind (the bench set)."""
    return {kind: config for kind, (_, config) in bench_configs().items()}


@pytest.fixture(scope="module")
def family_spec():
    return matrix_spec(
        "families", lsu_family_configs(), ["gcc", "bzip2"], INSTS,
        baseline="conventional",
    )


@pytest.fixture(scope="module")
def family_serial(family_spec):
    return SerialBackend().run(family_spec.cells())


class TestBatchEquivalence:
    def test_covers_every_lsu_kind(self):
        assert set(lsu_family_configs()) == {kind.value for kind in LSUKind}

    def test_batch_serial_matches_serial_backend(self, family_spec, family_serial):
        results = BatchRunner(jobs=1).run(family_spec.cells())
        assert [s.fingerprint() for s in results] == [
            s.fingerprint() for s in family_serial
        ]

    def test_batch_pool_matches_serial_backend(self, family_spec, family_serial):
        results = BatchRunner(jobs=2).run(family_spec.cells())
        assert [s.fingerprint() for s in results] == [
            s.fingerprint() for s in family_serial
        ]

    def test_fixed_trace_workloads_run_pooled(self):
        trace = kernel_trace("spill_fill", n_frames=60)
        spec = (
            ExperimentBuilder("kernel")
            .configs({k: v for k, v in fig5_configs().items() if k != "+PERFECT"})
            .trace("spill_fill", trace)
            .insts(INSTS)
            .warmup(0)
            .build()
        )
        serial = SerialBackend().run(spec.cells())
        pooled = BatchRunner(jobs=2).run(spec.cells())
        assert [s.fingerprint() for s in pooled] == [s.fingerprint() for s in serial]

    def test_run_experiment_with_batch_backend(self, family_spec, family_serial):
        figure = run_experiment(family_spec, backend=BatchRunner(jobs=2))
        for (request, stats) in zip(family_spec.cells(), family_serial):
            assert (
                figure.stats[request.workload.name][request.config_label].to_dict()
                == stats.to_dict()
            )


class TestGenerationAmortization:
    def test_generate_trace_runs_once_per_workload_serial(self, family_spec):
        backend = BatchRunner(jobs=1)
        backend.run(family_spec.cells())
        assert backend.last_provider is not None
        assert backend.last_provider.generations == 2  # one per workload

    def test_generate_trace_runs_once_per_workload_pooled(self, family_spec, monkeypatch):
        """Count actual generator invocations across the whole sweep."""
        import repro.experiments.traces as traces_mod

        calls: list[str] = []
        real = traces_mod.generate_trace

        def counting(profile, n_insts):
            calls.append(f"{profile.name}/{n_insts}")
            return real(profile, n_insts)

        monkeypatch.setattr(traces_mod, "generate_trace", counting)
        backend = BatchRunner(jobs=2)
        backend.run(family_spec.cells())
        # 2 workloads x 3 configs = 6 cells, but generation ran exactly
        # once per (workload, seed, n_insts) -- in the parent; workers only
        # ever decode.
        assert sorted(calls) == [f"bzip2/{INSTS}", f"gcc/{INSTS}"]
        assert backend.last_provider.generations == 2

    def test_trace_cache_skips_generation_across_sweeps(self, family_spec, tmp_path):
        cache = TraceCache(tmp_path)
        first = BatchRunner(jobs=1, trace_cache=cache)
        first.run(family_spec.cells())
        assert first.last_provider.generations == 2
        assert len(cache) == 2
        second = BatchRunner(jobs=1, trace_cache=cache)
        second.run(family_spec.cells())
        assert second.last_provider.generations == 0
        assert second.last_provider.disk_hits == 2

    def test_corrupt_cache_entry_regenerates(self, family_spec, tmp_path, family_serial):
        cache = TraceCache(tmp_path)
        request = family_spec.cells()[0]
        key = trace_key(request.workload.profile, request.n_insts)
        cache.save(key, b"definitely not a trace")
        backend = SerialBackend(trace_cache=cache)
        results = backend.run(family_spec.cells())
        assert backend.last_provider.generations == 2  # bad entry regenerated
        assert [s.fingerprint() for s in results] == [
            s.fingerprint() for s in family_serial
        ]

    def test_decodable_header_but_missing_columns_regenerates(
        self, family_spec, tmp_path, family_serial
    ):
        """An entry that passes the cheap verification (valid header+CRC)
        yet fails full decode still costs one regeneration, not a crash."""
        import json as json_mod
        import struct
        import zlib

        from repro.isa.codec import _HEADER_FMT, CODEC_VERSION, MAGIC, verify_encoded

        header = json_mod.dumps(
            {"name": "x", "n_insts": 0, "crc32": zlib.crc32(b""), "columns": []}
        ).encode()
        hollow = struct.pack(_HEADER_FMT, MAGIC, CODEC_VERSION, len(header)) + header
        verify_encoded(hollow)  # the cheap check cannot reject this

        cache = TraceCache(tmp_path)
        request = family_spec.cells()[0]
        cache.save(trace_key(request.workload.profile, request.n_insts), hollow)
        backend = SerialBackend(trace_cache=cache)
        results = backend.run(family_spec.cells())
        assert backend.last_provider.generations == 2
        assert [s.fingerprint() for s in results] == [
            s.fingerprint() for s in family_serial
        ]

    def test_serial_backend_generates_once_per_workload(self, family_spec):
        backend = SerialBackend()
        backend.run(family_spec.cells())
        assert backend.last_provider.generations == 2


class TestScheduling:
    def test_chunks_split_when_fewer_workloads_than_jobs(self):
        spec = matrix_spec(
            "one", lsu_family_configs(), ["gcc"], INSTS, baseline="conventional"
        )
        runner = BatchRunner(jobs=3)
        chunks = runner._chunks(spec.cells())
        assert len(chunks) == 3
        assert sorted(i for _, indices in chunks for i in indices) == [0, 1, 2]
        serial = SerialBackend().run(spec.cells())
        pooled = runner.run(spec.cells())
        assert [s.fingerprint() for s in pooled] == [s.fingerprint() for s in serial]

    def test_positional_alignment_is_independent_of_submission_order(self):
        spec = matrix_spec(
            "mix", lsu_family_configs(), ["gcc", "bzip2"], INSTS, baseline="conventional"
        )
        requests = spec.cells()
        reversed_results = BatchRunner(jobs=2).run(list(reversed(requests)))
        forward_results = BatchRunner(jobs=2).run(requests)
        assert [s.fingerprint() for s in reversed(reversed_results)] == [
            s.fingerprint() for s in forward_results
        ]


class TestFailureIdentity:
    @pytest.fixture()
    def poisoned_spec(self):
        """One healthy cell plus one that trips the watchdog immediately."""
        healthy = lsu_family_configs()["conventional"]
        poisoned = dataclasses.replace(
            healthy, name="poisoned", rob_size=0, watchdog_cycles=64
        )
        return matrix_spec(
            "poisoned", {"baseline": healthy, "bad": poisoned}, ["gcc"], INSTS
        )

    def test_batch_exception_names_the_cell(self, poisoned_spec):
        with pytest.raises(CellExecutionError, match=r"poisoned: gcc / bad"):
            BatchRunner(jobs=2).run(poisoned_spec.cells())

    def test_serial_exception_names_the_cell(self, poisoned_spec):
        with pytest.raises(CellExecutionError, match=r"poisoned: gcc / bad"):
            SerialBackend().run(poisoned_spec.cells())

    def test_worker_crash_mid_chunk_names_a_chunk_cell(self, monkeypatch):
        """A pool worker that dies mid-chunk (``os._exit``: no cleanup, no
        exception) fails the sweep with a :class:`CellExecutionError`
        naming a cell of a lost chunk, and the next sweep runs on a fresh
        session pool, bit-identical to serial."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the crash hook reaches the workers by fork inheritance")
        import repro.experiments.batch as batch_mod

        healthy = lsu_family_configs()["conventional"]
        crashing = dataclasses.replace(healthy, name="crash")
        spec = matrix_spec(
            "crash", {"baseline": healthy, "crash": crashing}, ["gcc", "bzip2"], INSTS
        )
        requests = spec.cells()
        real_processor = batch_mod.Processor

        def processor_that_dies_on_crash(config, trace, **kwargs):
            if config.name == "crash":
                os._exit(17)
            return real_processor(config, trace, **kwargs)

        # Each workload is one chunk [baseline, crash]: its worker finishes
        # the baseline cell, then exits in the middle of the chunk.
        runner = BatchRunner(jobs=2)
        assert [
            [requests[i].config_label for i in indices]
            for _, indices in runner._chunks(requests)
        ] == [["baseline", "crash"]] * 2
        pool_mod.shutdown_session_pools()  # fresh workers inherit the hook
        monkeypatch.setattr(batch_mod, "Processor", processor_that_dies_on_crash)
        with pytest.raises(
            CellExecutionError, match=r"^crash: (gcc|bzip2) / baseline: "
        ) as excinfo:
            runner.run(requests)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        broken = pool_mod._session_pools[runner.workers]

        monkeypatch.undo()
        pooled = BatchRunner(jobs=2).run(requests)
        assert pool_mod._session_pools[runner.workers] is not broken
        serial = SerialBackend().run(requests)
        assert [s.fingerprint() for s in pooled] == [s.fingerprint() for s in serial]


class TestMakeBackend:
    def test_dispatch(self, tmp_path):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        backend = make_backend(3)
        assert isinstance(backend, BatchRunner) and backend.jobs == 3
        cached = make_backend(2, trace_cache=TraceCache(tmp_path))
        assert cached.trace_cache is not None


class TestProvider:
    def test_provider_memoizes_encoded_and_decoded(self):
        provider = TraceProvider()
        workload = WorkloadSpec.from_profile(spec_profile("gcc"))
        first = provider.encoded(workload, INSTS)
        second = provider.encoded(workload, INSTS)
        assert first is second
        assert provider.generations == 1
        trace = provider.trace(workload, INSTS)
        assert provider.trace(workload, INSTS) is trace
        assert provider.generations == 1

    def test_decoded_memo_is_bounded(self):
        provider = TraceProvider(decoded_capacity=1)
        a = WorkloadSpec.from_profile(spec_profile("gcc"))
        b = WorkloadSpec.from_profile(spec_profile("bzip2"))
        provider.trace(a, INSTS)
        provider.trace(b, INSTS)
        assert len(provider._decoded) == 1


class TestAtomicStore:
    def test_concurrent_writers_never_tear_json(self, family_spec, tmp_path):
        """Racing sweep workers sharing a --cache-dir last-write-win whole
        files; a reader polling throughout must never see torn JSON."""
        store = ResultStore(tmp_path)
        request = family_spec.cells()[0]
        stats = SerialBackend().run([request])[0]
        path = store.path_for(request)
        stop = threading.Event()
        torn: list[str] = []

        def reader():
            while not stop.is_set():
                try:
                    text = path.read_text()
                except OSError:
                    continue
                try:
                    json.loads(text)
                except ValueError:
                    torn.append(text[:80])
                    return

        def writer():
            for _ in range(60):
                store.save(request, stats)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        observer = threading.Thread(target=reader)
        observer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        observer.join()
        assert torn == []
        assert store.load(request) is not None
        # No stray tmp files survive the stampede.
        assert list(tmp_path.glob("*.tmp")) == []
