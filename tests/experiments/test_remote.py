"""The remote execution backend: wire protocol, worker agents, fault
tolerance, and -- above all -- bit-identical equivalence to
:class:`~repro.experiments.backends.SerialBackend`."""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.experiments import (
    CampaignClient,
    CampaignDaemon,
    CellExecutionError,
    CostModel,
    FaultPlan,
    RemoteBackend,
    SerialBackend,
    WorkerAgent,
)
from repro.experiments.remote import (
    FRAME_JSON,
    FRAME_ZTRACE,
    PROTOCOL_VERSION,
    RemoteProtocolError,
    build_job_message,
    parse_worker,
    recv_frame,
    recv_json,
    send_frame,
    send_json,
)
from repro.harness.configs import fig5_configs
from repro.workloads.trace_cache import TraceCache


class TestFraming:
    def test_round_trip(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, FRAME_ZTRACE, b"\x00\x01payload")
            send_json(left, {"type": "hello", "protocol": PROTOCOL_VERSION})
            kind, payload = recv_frame(right)
            assert (kind, payload) == (FRAME_ZTRACE, b"\x00\x01payload")
            assert recv_json(right)["protocol"] == PROTOCOL_VERSION

    def test_unknown_kind_rejected(self):
        # ``T`` was protocol 1's raw trace frame; protocol 2 has no such kind.
        for kind in (b"X", b"T"):
            left, right = socket.socketpair()
            with left, right:
                left.sendall(kind + b"\x00\x00\x00\x01z")
                with pytest.raises(RemoteProtocolError, match="frame kind"):
                    recv_frame(right)

    def test_truncated_stream_is_connection_error(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(b"J\x00\x00\x00\x10partial")
            left.close()
            with pytest.raises(ConnectionError):
                recv_frame(right)

    def test_trace_frame_where_json_expected(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, FRAME_ZTRACE, b"bytes")
            with pytest.raises(RemoteProtocolError, match="JSON"):
                recv_json(right)

    def test_job_frame_carries_only_what_the_agent_reads(self, requests):
        """A job names the cell by its config and trace; the result cache
        lives with the client or the campaign daemon, so no cache key,
        workload name or instruction count rides along."""
        job = build_job_message(requests[0], 7, "trace-key", "ab" * 32)
        assert set(job) == {
            "type", "job_id", "describe", "config", "warmup", "validate",
            "trace_key", "trace_sha256",
        }
        assert "trace_sha256" not in build_job_message(requests[0], 7, "k", None)

    def test_parse_worker(self):
        assert parse_worker("10.0.0.1:7501") == ("10.0.0.1", 7501)
        for bad in ("nohost", "host:", ":7501", "host:port"):
            with pytest.raises(ValueError):
                parse_worker(bad)


class TestEquivalence:
    def test_two_workers_bit_identical_to_serial(self, requests, serial_fingerprints):
        with WorkerAgent() as a, WorkerAgent() as b:
            stats = RemoteBackend([a.address, b.address]).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            # Both agents actually participated and every cell ran somewhere.
            assert a.jobs_done > 0 and b.jobs_done > 0
            assert a.jobs_done + b.jobs_done == len(requests)

    def test_single_worker(self, requests, serial_fingerprints):
        with WorkerAgent() as agent:
            stats = RemoteBackend([agent.address]).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert agent.jobs_done == len(requests)

    def test_results_positionally_aligned(self, requests):
        with WorkerAgent() as agent:
            stats = RemoteBackend([agent.address]).run(requests)
        for request, cell_stats in zip(requests, stats):
            assert cell_stats.workload == request.workload.name
            assert cell_stats.config_name == request.config.name

    def test_configs_differing_only_in_name_keep_their_names(self, small_spec):
        base = fig5_configs()["baseline"]
        requests = small_spec(
            "rename", workloads=("gcc",),
            configs={"baseline": base, "renamed": base.derive("renamed")},
        ).cells()
        with WorkerAgent() as agent:
            stats = RemoteBackend([agent.address]).run(requests)
            assert agent.jobs_done == 1  # one fingerprint, one simulation
        serial = SerialBackend().run(requests)
        assert [s.config_name for s in stats] == [base.name, "renamed"]
        assert [s.fingerprint() for s in stats] == [s.fingerprint() for s in serial]


class TestHostTraceCache:
    def test_trace_bytes_sent_only_on_miss(self, requests):
        with WorkerAgent() as agent:
            backend = RemoteBackend([agent.address])
            backend.run(requests)
            # Two workloads -> two wire fetches, however many cells ran.
            assert agent.trace_misses == 2
            assert backend.traces_shipped == 2
            backend.run(requests)
            # Second sweep: the decoded memo answers, nothing re-sent.
            assert agent.trace_misses == 2

    def test_disk_cache_survives_memo_and_agent(self, tmp_path, requests):
        cache_dir = tmp_path / "host-cache"
        with WorkerAgent(trace_cache=TraceCache(cache_dir)) as agent:
            RemoteBackend([agent.address]).run(requests)
            assert agent.trace_misses == 2
            assert len(TraceCache(cache_dir)) == 2
        # A fresh agent on the same host: cold memo, warm disk -> no wire.
        with WorkerAgent(trace_cache=TraceCache(cache_dir)) as reborn:
            RemoteBackend([reborn.address]).run(requests)
            assert reborn.trace_misses == 0

    def test_poisoned_host_cache_is_detected_and_healed(self, tmp_path, small_spec):
        """A host cache entry whose bytes are not the trace the key names
        (version skew, corruption, a bad peer) must be refetched -- the
        client pins the content digest whenever it knows the bytes."""
        from repro.experiments.traces import workload_key
        from repro.isa.codec import encode_trace
        from repro.workloads.spec2000 import spec_profile
        from repro.workloads.synthetic import generate_trace

        spec = small_spec(workloads=("gcc",), n_configs=2)
        cells = spec.cells()
        client_cache = TraceCache(tmp_path / "client")
        # Fills the client's trace cache with the true bytes as it runs.
        serial = [
            s.fingerprint()
            for s in SerialBackend(trace_cache=client_cache).run(cells)
        ]
        host_cache = TraceCache(tmp_path / "host")
        wrong = encode_trace(generate_trace(spec_profile("vortex"), cells[0].n_insts))
        host_cache.save(workload_key(cells[0].workload, cells[0].n_insts), wrong)
        with WorkerAgent(trace_cache=host_cache) as agent:
            backend = RemoteBackend([agent.address], trace_cache=client_cache)
            stats = backend.run(cells)
            assert [s.fingerprint() for s in stats] == serial
            assert agent.trace_misses == 1  # the poisoned entry was refetched

    def test_one_agent_fetches_each_trace_once(self):
        """Config-major dispatch would cycle the agent through every trace
        once per config; trace affinity drains one trace at a time."""
        from repro.harness import figures

        profiles = ["bzip2", "crafty", "gap", "gcc", "mcf", "vortex"]
        with WorkerAgent() as agent:
            backend = RemoteBackend([agent.address], cost_model=CostModel())
            figures.figure5(benchmarks=profiles, n_insts=800, backend=backend)
            assert agent.trace_misses == len(profiles)
            assert backend.traces_shipped == len(profiles)

    def test_memo_evicts_least_recently_used(self, tmp_path):
        from repro.isa.codec import encode_trace
        from repro.workloads.spec2000 import spec_profile
        from repro.workloads.synthetic import generate_trace

        cache = TraceCache(tmp_path / "host")
        for name in ("gcc", "mcf", "vortex"):
            cache.save(name, encode_trace(generate_trace(spec_profile(name), 300)))
        agent = WorkerAgent(trace_cache=cache)
        try:
            # Every trace is on disk, so filling the memo needs no client.
            a = agent._trace_for("gcc", None, None)
            b = agent._trace_for("mcf", None, None)
            assert agent._trace_for("gcc", None, None) is a  # hit: gcc is newest
            agent._trace_for("vortex", None, None)  # evicts mcf, not gcc
            assert agent._trace_for("gcc", None, None) is a
            assert agent._trace_for("mcf", None, None) is not b
        finally:
            agent.close()

    def test_client_provider_generates_each_workload_once(self, requests):
        with WorkerAgent() as a, WorkerAgent() as b:
            backend = RemoteBackend([a.address, b.address])
            backend.run(requests)
            assert backend.last_provider is not None
            assert backend.last_provider.generations == 2
            # Every trace's cells settled: the provider keeps its counters
            # and no bytes.
            assert backend.last_provider.held == 0

    def test_more_agents_than_cores_generate_and_release_each_trace_once(
        self, small_spec
    ):
        # Encodes (executor thread) and releases (event loop) share the
        # provider; a fine switch interval interleaves them hard.
        cells = small_spec(workloads=("gcc", "vortex", "mcf", "bzip2"), n_configs=2).cells()
        serial = [s.fingerprint() for s in SerialBackend().run(cells)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            agents = [WorkerAgent().start() for _ in range(4)]
            try:
                backend = RemoteBackend([agent.address for agent in agents])
                stats = backend.run(cells)
            finally:
                for agent in agents:
                    agent.close()
        finally:
            sys.setswitchinterval(interval)
        assert [s.fingerprint() for s in stats] == serial
        assert backend.last_provider.generations == 4
        assert backend.last_provider.held == 0


class TestFaultTolerance:
    def test_killed_worker_redispatches_and_completes(
        self, requests, serial_fingerprints
    ):
        # The chaotic agent dies (connection severed, no goodbye) after two
        # results; its in-flight cell must re-run elsewhere, identically.
        with WorkerAgent(faults=FaultPlan(drop_after=2)) as chaotic, WorkerAgent() as healthy:
            stats = RemoteBackend([chaotic.address, healthy.address]).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert chaotic.jobs_done == 2
            assert healthy.jobs_done == len(requests) - 2

    def test_requeued_cell_does_not_regenerate_its_trace(
        self, requests, serial_fingerprints
    ):
        # A lost cell goes back to pending, so its trace stays live and
        # its bytes are reused, not generated again.
        with WorkerAgent(faults=FaultPlan(drop_after=1)) as chaotic, WorkerAgent() as healthy:
            backend = RemoteBackend([chaotic.address, healthy.address])
            stats = backend.run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert chaotic.jobs_done == 1
            assert backend.last_provider.generations == 2
            assert backend.last_provider.held == 0

    def test_kill_with_drained_queue_still_redispatches(self, small_spec):
        """Regression: with as many cells as workers the queue drains
        instantly, so when one worker dies its re-queued cell appears
        *after* every other worker saw an empty queue -- idle workers must
        wait for in-flight peers instead of exiting, or the cell strands."""
        spec = small_spec(workloads=("gcc",), n_configs=2)
        cells = spec.cells()
        serial = [s.fingerprint() for s in SerialBackend().run(cells)]
        with WorkerAgent(faults=FaultPlan(drop_after=0)) as doomed, WorkerAgent() as healthy:
            stats = RemoteBackend([doomed.address, healthy.address]).run(cells)
            assert [s.fingerprint() for s in stats] == serial
            assert healthy.jobs_done == len(cells)
            assert doomed.jobs_done == 0

    def test_three_agents_with_a_dropping_agent(self, requests, serial_fingerprints):
        # One agent of three dying mid-sweep: its cells are re-dispatched
        # and the results stay bit-identical to serial.  (A straggler may
        # be re-dispatched too, so only a lower bound on the simulations
        # holds.)
        with WorkerAgent(faults=FaultPlan(drop_after=1)) as chaotic, \
                WorkerAgent() as a, WorkerAgent() as b:
            stats = RemoteBackend([chaotic.address, a.address, b.address]).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert chaotic.connections_served == 1
            assert a.jobs_done + b.jobs_done >= len(requests) - chaotic.jobs_done

    def test_all_workers_lost_raises(self, requests):
        with WorkerAgent(faults=FaultPlan(drop_after=0)) as doomed:
            with pytest.raises(CellExecutionError, match="unfinished"):
                RemoteBackend([doomed.address]).run(requests)

    def test_unreachable_worker_raises(self, requests):
        # Port 1 is never listening; connect fails, no worker remains.
        with pytest.raises(CellExecutionError, match="unfinished"):
            RemoteBackend(["127.0.0.1:1"], connect_timeout=0.5).run(requests)

    def test_unreachable_worker_tolerated_beside_live_one(
        self, requests, serial_fingerprints
    ):
        with WorkerAgent() as agent:
            backend = RemoteBackend([agent.address, "127.0.0.1:1"], connect_timeout=0.5)
            stats = backend.run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints

    def test_deterministic_cell_failure_not_retried(self, small_spec):
        # warmup > n_insts makes SimStats impossible? No -- use a config
        # whose watchdog trips instantly: watchdog_cycles is validated
        # nowhere, and a 0-cycle watchdog aborts the first cycle.
        configs = {"bad": fig5_configs()["baseline"].derive("bad", watchdog_cycles=0)}
        spec = small_spec("doomed", workloads=("gcc",), configs=configs, baseline="bad")
        with WorkerAgent() as agent:
            with pytest.raises(CellExecutionError, match="doomed: gcc / bad"):
                RemoteBackend([agent.address]).run(spec.cells())
            # The agent survives a failing cell and serves the next sweep.
            good = small_spec(workloads=("gcc",), n_configs=1).cells()
            stats = RemoteBackend([agent.address]).run(good)[0]
            assert stats.committed == good[0].n_insts - good[0].warmup

    def test_empty_request_list(self):
        with WorkerAgent() as agent:
            assert RemoteBackend([agent.address]).run([]) == []


class TestProtocolRobustness:
    def test_garbage_client_does_not_kill_agent(self, requests):
        with WorkerAgent() as agent:
            host, port = parse_worker(agent.address)
            with socket.create_connection((host, port)) as conn:
                conn.sendall(b"not a frame at all")
            stats = RemoteBackend([agent.address]).run(requests[:1])
            assert stats[0].committed == requests[0].n_insts - requests[0].warmup

    def test_hello_mismatch_rejected(self):
        assert PROTOCOL_VERSION == 3
        with WorkerAgent() as agent:
            host, port = parse_worker(agent.address)
            # Protocol 1 peers could still send raw T trace frames; protocol
            # 2 peers encode traces and configs of the previous layout.
            for protocol in (999, 1, 2):
                with socket.create_connection((host, port)) as conn:
                    send_json(conn, {"type": "hello", "protocol": protocol})
                    # Agent drops the connection without a hello back.
                    with pytest.raises((ConnectionError, RemoteProtocolError)):
                        recv_json(conn)

    def test_job_config_of_another_layout_is_a_cell_error(self, requests):
        """A config dict with a field this build lacks fails its one cell
        with an error frame naming the field; the agent serves on."""
        job = build_job_message(requests[0], 7, "trace-key", None)
        job["config"]["retired_knob"] = True
        with WorkerAgent() as agent:
            host, port = parse_worker(agent.address)
            with socket.create_connection((host, port)) as conn:
                send_json(conn, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_json(conn)["type"] == "hello"
                send_json(conn, job)
                reply = recv_json(conn)
            assert (reply["type"], reply["job_id"]) == ("error", 7)
            assert "retired_knob" in reply["message"]
            stats = RemoteBackend([agent.address]).run(requests[:1])
            assert stats[0].committed == requests[0].n_insts - requests[0].warmup

    def test_backend_rejects_bad_addresses_up_front(self):
        with pytest.raises(ValueError):
            RemoteBackend([])
        with pytest.raises(ValueError):
            RemoteBackend(["malformed"])


class TestClose:
    def test_closed_agent_refuses_connections_and_joins_its_threads(self, wait_for):
        with CampaignDaemon() as daemon:
            agent = WorkerAgent().start()
            # A long heartbeat: only close() severing the registry link
            # lets the registry thread exit promptly.
            agent.register_with(daemon.address, heartbeat_interval=60.0)
            with CampaignClient(daemon.address) as client:
                wait_for(lambda: client.stats()["workers"], message="registration")
            agent.close()
            alive = {thread.name for thread in threading.enumerate()}
            assert f"svw-worker-{agent.port}" not in alive
            assert f"svw-worker-registry-{agent.port}" not in alive
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((agent.host, agent.port), timeout=1.0)
            agent.close()  # idempotent


class TestScheduling:
    def test_cost_model_learns_from_remote_timings(self, requests):
        model = CostModel()
        baseline_weight = model.weight(requests[0].config)
        with WorkerAgent() as agent:
            RemoteBackend([agent.address], cost_model=model).run(requests)
        # After a sweep the model has measured rates for every config, so
        # weights are now data-driven (normalized around 1.0), not the
        # static heuristic.
        assert model.to_dict()["rates"]
        assert model.weight(requests[0].config) != baseline_weight or (
            abs(model.weight(requests[0].config) - 1.0) < 0.5
        )


class TestConcurrentClients:
    def test_two_backends_share_one_agent(self, requests, serial_fingerprints):
        with WorkerAgent() as agent:
            outcome: dict[str, list] = {}

            def sweep(label: str) -> None:
                stats = RemoteBackend([agent.address]).run(requests)
                outcome[label] = [s.fingerprint() for s in stats]

            threads = [
                threading.Thread(target=sweep, args=(label,)) for label in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outcome["a"] == serial_fingerprints
            assert outcome["b"] == serial_fingerprints
            assert agent.connections_served >= 2


class TestCompression:
    """Every trace travels as one zlib-compressed ``Z`` frame."""

    def test_decode_trace_frame(self):
        import zlib

        from repro.experiments.remote import decode_trace_frame

        packed = zlib.compress(b"raw")
        assert decode_trace_frame(FRAME_ZTRACE, packed, "ctx") == b"raw"
        with pytest.raises(RemoteProtocolError, match="undecompressable"):
            decode_trace_frame(FRAME_ZTRACE, b"not zlib", "ctx")
        with pytest.raises(RemoteProtocolError, match="expected trace"):
            decode_trace_frame(FRAME_JSON, b"{}", "ctx")


class TestAddressHardening:
    def test_parse_worker_message_quality(self):
        with pytest.raises(ValueError, match="is empty"):
            parse_worker("   ")
        with pytest.raises(ValueError, match="missing a port"):
            parse_worker("nohost")
        with pytest.raises(ValueError, match="missing a port"):
            parse_worker("host:")
        with pytest.raises(ValueError, match="missing a host"):
            parse_worker(":7501")
        with pytest.raises(ValueError, match="non-numeric port"):
            parse_worker("host:port")
        with pytest.raises(ValueError, match="out-of-range"):
            parse_worker("host:99999")
        # Whitespace around list entries is tolerated, not fatal.
        assert parse_worker("  node1:7501 ") == ("node1", 7501)

