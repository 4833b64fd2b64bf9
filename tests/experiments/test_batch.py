"""The sweep-execution subsystem: batch runner, shared traces, providers.

The contract under test: every backend mode is bit-identical to
:class:`SerialBackend`, and trace generation runs at most once per
(workload, seed, n_insts) per sweep regardless of backend or worker
count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading

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
from repro.experiments.pool import _session_fleets
from repro.experiments.remote import stop_worker_agents
from repro.experiments.spec import WorkloadSpec
from repro.harness.configs import fig5_configs
from repro.harness.goldens import bench_configs
from repro.pipeline.config import LSUKind
from repro.workloads.kernels import kernel_trace
from repro.workloads.trace_cache import TraceCache, trace_key
from repro.workloads.spec2000 import spec_profile

INSTS = 1200


def lsu_family_configs():
    """One representative config family per LSU kind (the bench set)."""
    return {kind: config for kind, (_, config) in bench_configs().items()}


def cold_fleet(runner: BatchRunner) -> BatchRunner:
    """``runner`` with its session fleet stopped: its next run starts on
    new agents that hold no trace yet, and other fleets stay up."""
    stop_worker_agents([agent for agent, _ in _session_fleets.pop(runner.workers, [])])
    return runner


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
        spec = matrix_spec(
            "kernel",
            {k: v for k, v in fig5_configs().items() if k != "+PERFECT"},
            [WorkloadSpec.from_trace("spill_fill", trace)],
            n_insts=INSTS,
            warmup=0,
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
        backend = cold_fleet(BatchRunner(jobs=1))
        backend.run(family_spec.cells())
        assert backend.last_provider is not None
        assert backend.last_provider.generations == 2  # one per workload

    def test_generate_trace_runs_once_per_workload_pooled(self, family_spec, monkeypatch):
        """Count actual trace materializations across the whole sweep: once
        per workload on a fresh fleet, at most once on a warm one."""
        calls: list[str] = []
        real = WorkloadSpec.materialize

        def counting(workload, n_insts, seed=None):
            calls.append(f"{workload.name}/{n_insts}")
            return real(workload, n_insts, seed)

        monkeypatch.setattr(WorkloadSpec, "materialize", counting)
        backend = cold_fleet(BatchRunner(jobs=2))
        backend.run(family_spec.cells())
        # 2 workloads x 3 configs = 6 cells, but generation ran exactly
        # once per (workload, seed, n_insts) -- in the parent; workers only
        # ever decode.
        assert sorted(calls) == [f"bzip2/{INSTS}", f"gcc/{INSTS}"]
        assert backend.last_provider.generations == 2
        # The warm agents still hold both traces, so a second sweep asks
        # for none of them again.
        calls.clear()
        warm = BatchRunner(jobs=2)
        warm.run(family_spec.cells())
        assert len(calls) == len(set(calls)) == warm.last_provider.generations <= 2

    def test_trace_cache_skips_generation_across_sweeps(self, family_spec, tmp_path):
        cache = TraceCache(tmp_path)
        first = cold_fleet(BatchRunner(jobs=1, trace_cache=cache))
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
        assert backend.last_provider.disk_hits == 0  # never served
        assert [s.fingerprint() for s in results] == [
            s.fingerprint() for s in family_serial
        ]

    def test_serial_backend_generates_once_per_workload(self, family_spec):
        """One generation per workload, whether the cells arrive as one
        sweep or one ``run([request])`` at a time (the fuzzer's pattern);
        between runs the backend holds one decoded trace and no more
        encoded bytes."""
        cells = family_spec.cells()
        for batches in ([cells], [[request] for request in cells]):
            backend = SerialBackend()
            for batch in batches:
                backend.run(batch)
            provider = backend.last_provider
            assert provider.generations == 2, len(batches)
            assert len(provider._decoded) == 1
            assert len(provider._encoded) <= 1


class TestScheduling:
    def test_more_jobs_than_cores_caps_the_fleet(self):
        spec = matrix_spec(
            "one", lsu_family_configs(), ["gcc"], INSTS, baseline="conventional"
        )
        runner = BatchRunner(jobs=(os.cpu_count() or 1) + 1)
        assert runner.workers == (os.cpu_count() or 1)
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
        provider = TraceProvider()
        a = WorkloadSpec.from_profile(spec_profile("gcc"))
        b = WorkloadSpec.from_profile(spec_profile("bzip2"))
        provider.trace(a, INSTS)
        provider.trace(b, INSTS)
        assert len(provider._decoded) == 1

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "warm-cache"])
    def test_serial_sweep_holds_one_trace_at_a_time(
        self, family_spec, tmp_path, monkeypatch, cached
    ):
        """While a serial sweep moves from gcc to bzip2, the provider's
        decoded memo is empty whenever a trace is generated or decoded:
        the last trace is dropped before the next is built."""
        import repro.experiments.traces as traces_mod

        cache = TraceCache(tmp_path) if cached else None
        if cached:
            SerialBackend(trace_cache=cache).run(family_spec.cells())
        backend = SerialBackend(trace_cache=cache)
        provider = backend.last_provider
        held: list[tuple[str, int]] = []
        materialize, decode = WorkloadSpec.materialize, traces_mod.decode_trace

        def counting_materialize(workload, n_insts, seed=None):
            held.append(("materialize", len(provider._decoded)))
            return materialize(workload, n_insts, seed)

        def counting_decode(data):
            held.append(("decode", len(provider._decoded)))
            return decode(data)

        monkeypatch.setattr(WorkloadSpec, "materialize", counting_materialize)
        monkeypatch.setattr(traces_mod, "decode_trace", counting_decode)
        cells = family_spec.cells()
        assert list(dict.fromkeys(r.workload.name for r in cells)) == ["gcc", "bzip2"]
        backend.run(cells)
        step = "decode" if cached else "materialize"
        assert held == [(step, 0), (step, 0)]

    def test_encoded_keeps_no_decoded_trace(self):
        provider = TraceProvider()
        provider.encoded(WorkloadSpec.from_profile(spec_profile("gcc")), INSTS)
        assert provider._decoded == {}


class TestAtomicStore:
    def test_concurrent_writers_never_tear_json(self, family_spec, family_serial, tmp_path):
        """Racing sweep workers sharing a --cache-dir last-write-win whole
        files; a reader polling throughout must never see torn JSON."""
        store = ResultStore(tmp_path)
        request = family_spec.cells()[0]
        stats = family_serial[0]
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
