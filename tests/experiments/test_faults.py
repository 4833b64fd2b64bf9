"""The deterministic fault-injection layer and the hardening it proves:
seeded :class:`~repro.experiments.faults.FaultPlan` schedules, corrupted
and truncated trace frames surfacing as re-requests (never hangs, never
wrong results), straggler deadlines, registry backoff and quarantine,
campaign fallback, journal snapshots, and the fsck scrubbers."""

from __future__ import annotations

import json
import socket
import threading
import time
import zlib

import pytest

from repro.experiments import (
    CampaignBackend,
    CampaignClient,
    CampaignDaemon,
    CampaignUnreachableError,
    CellExecutionError,
    CostModel,
    FaultPlan,
    RemoteBackend,
    ResultStore,
    WorkerAgent,
    scrub_journals,
)
from repro.experiments.campaign import JOURNAL_SCHEMA, _read_journal
from repro.experiments.faults import FaultEvent
from repro.experiments.remote import (
    FRAME_ZTRACE,
    PROTOCOL_VERSION,
    build_job_message,
    parse_worker,
    recv_json,
    send_frame,
    send_json,
)
from repro.experiments.scheduler import derive_deadline
from repro.experiments.traces import workload_key
from repro.fingerprint import TRACE_EPOCH
from repro.isa.codec import CODEC_VERSION, encode_trace
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace_cache import TraceCache


def drive(plan: FaultPlan, payload: bytes = b"x" * 64, rounds: int = 40):
    """Push a fixed decision sequence through every site a plan serves."""
    decisions = []
    for i in range(rounds):
        decisions.append(plan.job_fault("worker.job", jobs_done=i))
        decisions.append(plan.mutate_trace("client.trace", payload))
    return decisions


class TestFaultPlan:
    SPEC = "seed=7,crash_rate=0.1,drop_rate=0.1,delay_rate=0.2,delay_seconds=3.5,corrupt_rate=0.3,truncate_rate=0.2"

    def test_same_spec_fires_identical_events(self):
        a, b = FaultPlan.from_spec(self.SPEC), FaultPlan.from_spec(self.SPEC)
        assert drive(a) == drive(b)
        assert a.events == b.events
        assert a.events  # the spec is aggressive enough to actually fire

    def test_sites_draw_from_independent_streams(self):
        # Interleaving across sites must not perturb any one site's
        # decisions -- that is what makes multi-threaded chaos replayable.
        a, b = FaultPlan.from_spec(self.SPEC), FaultPlan.from_spec(self.SPEC)
        data = b"y" * 32
        a_trace = [a.mutate_trace("client.trace", data) for _ in range(20)]
        a_jobs = [a.job_fault("worker.job", jobs_done=i) for i in range(20)]
        b_trace, b_jobs = [], []
        for i in range(20):  # same calls, interleaved instead of batched
            b_jobs.append(b.job_fault("worker.job", jobs_done=i))
            b_trace.append(b.mutate_trace("client.trace", data))
        assert a_trace == b_trace
        assert a_jobs == b_jobs

    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(self.SPEC)
        again = FaultPlan.from_spec(plan.to_spec())
        assert drive(plan) == drive(again)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown fault-plan field"):
            FaultPlan.from_spec("seed=1,chaos_level=11")
        with pytest.raises(ValueError, match="non-numeric"):
            FaultPlan.from_spec("corrupt_rate=lots")
        with pytest.raises(ValueError, match="name=value"):
            FaultPlan.from_spec("seed")

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultPlan(corrupt_rate=1.5)
        with pytest.raises(ValueError, match="<= 1"):
            FaultPlan(corrupt_rate=0.7, truncate_rate=0.7)
        with pytest.raises(ValueError, match="max_faults"):
            FaultPlan(max_faults=-1)

    def test_per_kind_cap_preserves_the_stream(self):
        # A capped plan must make the SAME draws as an uncapped twin --
        # its events are exactly the first max_faults of each kind, with
        # the same per-site sequence numbers.
        free = FaultPlan.from_spec(self.SPEC)
        capped = FaultPlan.from_spec(self.SPEC + ",max_faults=2")
        drive(free, rounds=60)
        drive(capped, rounds=60)
        by_kind: dict[str, list[FaultEvent]] = {}
        for event in free.events:
            by_kind.setdefault(event.kind, []).append(event)
        expected = [e for kind in by_kind for e in by_kind[kind][:2]]
        assert sorted(capped.events, key=lambda e: (e.kind, e.seq)) == sorted(
            expected, key=lambda e: (e.kind, e.seq)
        )

    def test_job_fault_count_triggers(self):
        plan = FaultPlan(drop_after=2)
        assert plan.job_fault("worker.job", jobs_done=0) is None
        assert plan.job_fault("worker.job", jobs_done=1) is None
        event = plan.job_fault("worker.job", jobs_done=2)
        assert event is not None and event.kind == "drop"
        crash = FaultPlan(crash_after=0).job_fault("worker.job", jobs_done=0)
        assert crash is not None and crash.kind == "crash"

    def test_mutations_are_detectable_damage(self):
        data = bytes(range(256))
        corrupted = FaultPlan(corrupt_rate=1.0).mutate_trace("s", data)
        assert corrupted is not None and len(corrupted) == len(data)
        assert sum(x != y for x, y in zip(corrupted, data)) == 1
        truncated = FaultPlan(truncate_rate=1.0).mutate_trace("s", data)
        assert truncated is not None and len(truncated) < len(data)
        assert data.startswith(truncated)
        assert FaultPlan().mutate_trace("s", data) is None

    def test_events_log_through_callback(self):
        seen: list[str] = []
        plan = FaultPlan.from_spec("seed=1,corrupt_rate=1.0", log=lambda e: seen.append(e.describe()))
        plan.mutate_trace("client.trace", b"abc")
        assert seen and "corrupt @client.trace #0" in seen[0]


class TestDamagedTraceFrames:
    """Satellite contract: corrupted or truncated trace payloads inside
    ``Z`` frames surface as a worker-side re-request or a clean
    :class:`CellExecutionError`.  Never a hang, never a silently wrong
    result."""

    def test_corrupt_z_frames_rerequested_end_to_end(
        self, requests, serial_fingerprints
    ):
        plan = FaultPlan(seed=5, corrupt_rate=1.0, max_faults=2)
        with WorkerAgent() as agent:
            backend = RemoteBackend([agent.address], faults=plan)
            stats = backend.run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert agent.trace_rejections == 2
            assert [e.kind for e in plan.events] == ["corrupt", "corrupt"]

    def test_truncated_t_frames_rerequested_end_to_end(
        self, requests, serial_fingerprints
    ):
        # The truncated trace travels inside an intact Z frame, so it is
        # the codec, not zlib, that rejects it.
        plan = FaultPlan(seed=6, truncate_rate=1.0, max_faults=2)
        with WorkerAgent() as agent:
            backend = RemoteBackend([agent.address], faults=plan)
            stats = backend.run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert agent.trace_rejections == 2

    def test_persistent_corruption_is_a_clean_failure(self, small_spec):
        # Every transfer damaged, no cap: the worker gives up after its
        # bounded re-requests, the dispatcher retires it, and the sweep
        # fails with a CellExecutionError -- not a hang, not bad data.
        cells = small_spec(workloads=("gcc",), n_configs=1).cells()
        plan = FaultPlan(seed=7, corrupt_rate=1.0)
        with WorkerAgent() as agent:
            with pytest.raises(CellExecutionError, match="unfinished"):
                RemoteBackend([agent.address], faults=plan).run(cells)
            assert agent.trace_rejections >= 3

    def test_undecompressable_z_frame_rerequested_in_place(self, small_spec):
        # Protocol-level proof on a hand-driven socket: garbage zlib bytes
        # cost one re-request on the SAME connection, and the job then
        # completes with the true bytes.
        cell = small_spec(workloads=("gcc",), n_configs=1).cells()[0]
        data = encode_trace(generate_trace(spec_profile("gcc"), cell.n_insts))
        key = workload_key(cell.workload, cell.n_insts)
        import hashlib

        digest = hashlib.sha256(data).hexdigest()
        with WorkerAgent() as agent:
            host, port = parse_worker(agent.address)
            with socket.create_connection((host, port)) as conn:
                # A hello with no capability field still gets Z frames.
                send_json(conn, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_json(conn)["type"] == "hello"
                send_json(conn, build_job_message(cell, 0, key, digest))
                assert recv_json(conn)["type"] == "need_trace"
                send_frame(conn, FRAME_ZTRACE, b"certainly not zlib")
                # The session survives: the worker asks again in place.
                assert recv_json(conn)["type"] == "need_trace"
                send_frame(conn, FRAME_ZTRACE, zlib.compress(data))
                result = recv_json(conn)
                assert result["type"] == "result"
            assert agent.trace_rejections == 1


class TestStragglerDeadlines:
    def test_derive_deadline(self, small_spec):
        cell = small_spec(workloads=("gcc",), n_configs=1).cells()[0]
        assert derive_deadline(None, cell, None) is None
        assert derive_deadline(None, cell, 2.5) == 2.5
        # Auto with no measured rate: no deadline (a guess would strike
        # healthy workers on cold caches).
        assert derive_deadline(CostModel(), cell, "auto") is None
        model = CostModel()
        model.observe(cell.config, cell.n_insts, 0.5)
        deadline = derive_deadline(model, cell, "auto")
        assert deadline is not None and deadline >= 60.0  # floored

    def test_straggler_redispatched_and_struck(self, requests, serial_fingerprints):
        # One worker stalls its first job far past the fixed deadline; the
        # dispatcher must hedge the cell to the healthy worker and still
        # produce serial-identical results.
        plan = FaultPlan(seed=9, delay_rate=1.0, delay_seconds=30.0, max_faults=1)
        with WorkerAgent(faults=plan) as slow, WorkerAgent() as healthy:
            backend = RemoteBackend(
                [slow.address, healthy.address], job_deadline=1.0
            )
            stats = backend.run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert backend.stragglers == 1
            assert healthy.jobs_done == len(requests)


class TestRegistryBackoff:
    def test_daemon_down_announced_once_then_backoff(self, wait_for):
        notes: list[str] = []
        agent = WorkerAgent(progress=notes.append)
        try:
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
            probe.close()
            agent.register_with(
                f"127.0.0.1:{dead_port}", retry_interval=0.05, retry_max=0.2
            )
            wait_for(
                lambda: any("unreachable" in n for n in notes),
                timeout=10.0,
                message="down transition announced",
            )
            time.sleep(0.4)  # several backoff cycles
            assert sum("unreachable" in n for n in notes) == 1
        finally:
            agent.close()

    def test_refusal_backs_off_then_readmits(self, wait_for):
        # A fake daemon refuses twice (as a quarantine would), then
        # registers the worker: the loop must announce each transition and
        # keep retrying until readmitted.
        answers = ["error", "error", "registered"]
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        port = server.getsockname()[1]
        stop = threading.Event()

        def fake_daemon():
            while not stop.is_set() and answers:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                with conn:
                    try:
                        assert recv_json(conn)["type"] == "register"
                        kind = answers.pop(0)
                        if kind == "error":
                            send_json(conn, {"type": "error", "message": "quarantined for 9.9s"})
                        else:
                            send_json(conn, {"type": "registered", "worker": "w"})
                            stop.wait(5.0)
                    except Exception:
                        pass

        thread = threading.Thread(target=fake_daemon, daemon=True)
        thread.start()
        notes: list[str] = []
        agent = WorkerAgent(progress=notes.append)
        try:
            agent.register_with(f"127.0.0.1:{port}", retry_interval=0.05, retry_max=0.2)
            wait_for(
                lambda: any("registered with" in n for n in notes),
                timeout=10.0,
                message="readmission after refusals",
            )
            assert sum("registration refused" in n for n in notes) == 2
        finally:
            agent.close()
            stop.set()
            server.close()
            thread.join(timeout=5.0)


class TestQuarantine:
    def test_striking_worker_is_quarantined_and_refused(
        self, tmp_path, small_spec, wait_for
    ):
        # Register a worker address nobody is listening on; the dial-back
        # failure is a strike, and quarantine_after=1 banishes it at once.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        cells = small_spec(workloads=("gcc",), n_configs=1).cells()
        with CampaignDaemon(
            quarantine_after=1, quarantine_base=60.0, connect_timeout=1.0
        ) as daemon:
            host, port = parse_worker(daemon.address)
            with socket.create_connection((host, port)) as registry:
                send_json(
                    registry,
                    {
                        "type": "register",
                        "protocol": PROTOCOL_VERSION,
                        "port": dead_port,
                    },
                )
                assert recv_json(registry)["type"] == "registered"
                with CampaignClient(daemon.address) as client:
                    client.submit(cells=cells, name="quarantine-test")
                    wait_for(
                        lambda: client.stats().get("quarantined"),
                        timeout=30.0,
                        message="dial-back strike to quarantine the worker",
                    )
                    banished = client.stats()["quarantined"]
                    assert banished[0]["id"] == f"127.0.0.1:{dead_port}"
                    assert banished[0]["seconds_left"] > 0
            # Re-registration during quarantine is refused with the reason.
            with socket.create_connection((host, port)) as again:
                send_json(
                    again,
                    {
                        "type": "register",
                        "protocol": PROTOCOL_VERSION,
                        "port": dead_port,
                    },
                )
                refusal = recv_json(again)
                assert refusal["type"] == "error"
                assert "quarantined" in refusal["message"]


class TestCampaignFallback:
    def test_unreachable_daemon_falls_back_to_local(self, serial_fingerprints, requests):
        notes: list[str] = []
        backend = CampaignBackend(
            "127.0.0.1:1", retry_timeout=0.2, fallback="local"
        )
        stats = backend.run(requests, progress=notes.append)
        assert [s.fingerprint() for s in stats] == serial_fingerprints
        assert any("falling back to local serial execution" in n for n in notes)

    def test_without_fallback_the_failure_is_loud_and_typed(self, requests):
        backend = CampaignBackend("127.0.0.1:1", retry_timeout=0.2)
        with pytest.raises(CampaignUnreachableError, match="unreachable"):
            backend.run(requests)

    def test_fallback_vocabulary_is_validated(self):
        with pytest.raises(ValueError, match="fallback"):
            CampaignBackend("127.0.0.1:1", fallback="cloud")


def _journal(central, campaign_id) -> dict:
    """A campaign's journal, read the only way it can be: one JSON value."""
    return json.loads((central / "campaigns" / f"{campaign_id}.jsonl").read_text())


class TestJournalSnapshots:
    def test_journal_is_one_snapshot_per_state(self, tmp_path, small_spec):
        central = tmp_path / "central"
        one_cell = small_spec(workloads=("gcc",), n_configs=1)
        with CampaignDaemon(cache_dir=central) as daemon:
            with CampaignClient(daemon.address) as client:
                # No workers yet: the submit snapshot says running.
                campaign_id = client.submit(cells=one_cell.cells())["campaign"]
                submitted = _journal(central, campaign_id)
                assert submitted["status"] == "running"
                assert submitted["schema"] == JOURNAL_SCHEMA
                assert len(submitted["cells"]) == 1
                with WorkerAgent() as agent:
                    agent.register_with(daemon.address)
                    assert client.wait(campaign_id, timeout=120)["state"] == "done"
        assert _journal(central, campaign_id)["status"] == "done"

    def test_daemon_resumes_beside_a_stale_snapshot_tmp(self, tmp_path, small_spec):
        central = tmp_path / "central"
        one_cell = small_spec(workloads=("gcc",), n_configs=1)
        daemon1 = CampaignDaemon(cache_dir=central).start()
        with CampaignClient(daemon1.address) as client:
            campaign_id = client.submit(cells=one_cell.cells())["campaign"]
        daemon1.close()
        # What kill -9 leaves mid-snapshot: a partial tmp beside the journal.
        stale = central / "campaigns" / f".{campaign_id}.jsonl.k9x2ab.tmp"
        stale.write_text('{"record": "campaign", "sche')
        with CampaignDaemon(cache_dir=central) as daemon2:
            with CampaignClient(daemon2.address) as client:
                # Replayed from the journal, not resubmitted.
                assert client.status(campaign_id)["state"] == "running"
                with WorkerAgent() as agent:
                    agent.register_with(daemon2.address)
                    assert client.wait(campaign_id, timeout=120)["state"] == "done"
        assert _journal(central, campaign_id)["status"] == "done"
        assert stale.exists()  # fsck's to report, not the daemon's

    def test_scrub_journals_flags_and_fixes(self, tmp_path):
        good = {
            "record": "campaign",
            "schema": JOURNAL_SCHEMA,
            "campaign": "c",
            "name": "n",
            "status": "running",
            "error": None,
            "cells": [],
        }
        (tmp_path / "ok.jsonl").write_text(json.dumps(good) + "\n")
        (tmp_path / "hopeless.jsonl").write_text("not json at all\n")
        # A schema-2 journal (header plus an appended record) is stale.
        old = {**good, "schema": 2}
        (tmp_path / "old.jsonl").write_text(
            json.dumps(old) + "\n" + json.dumps({"record": "status", "status": "done"}) + "\n"
        )
        (tmp_path / ".ok.jsonl.k9x2ab.tmp").write_text('{"record": "camp')
        # Not a journal: a stray .json file is foreign, reported but kept.
        (tmp_path / "notes.json").write_text("not json at all\n")
        assert _read_journal(tmp_path / "ok.jsonl") == good
        assert _read_journal(tmp_path / "old.jsonl") is None
        report = scrub_journals(tmp_path)
        assert report.scanned == 3 and report.clean == 1
        assert report.corrupt == ["hopeless.jsonl", "old.jsonl"]
        assert report.stale_tmp == [".ok.jsonl.k9x2ab.tmp"]
        assert report.foreign == ["notes.json"]
        assert not report.ok
        fixed = scrub_journals(tmp_path, fix=True)
        assert fixed.repaired == 3
        after = scrub_journals(tmp_path)
        assert after.ok and after.scanned == 1 and after.clean == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.json", "ok.jsonl"]


class TestFsck:
    def test_store_fsck_finds_and_fixes(self, tmp_path, requests, serial_stats):
        store = ResultStore(tmp_path / "store")
        serial = serial_stats[:2]
        for request, stats in zip(requests[:2], serial):
            store.save(request, stats)
        good = store.fsck()
        assert good.ok and good.scanned == 2 and good.clean == 2
        # Damage one cell, drop a stale tmp, a foreign file, a bad model.
        victim = store.path_for(requests[0])
        victim.write_text("{broken")
        (store.root / ".cell.123.tmp").write_text("half-written")
        (store.root / "NOTES.txt").write_text("a human was here")
        store.cost_model_path.write_text("also broken")
        report = store.fsck()
        assert not report.ok
        assert report.scanned == 3 and report.clean == 1
        assert report.corrupt == sorted([victim.name, store.cost_model_path.name])
        assert report.stale_tmp == [".cell.123.tmp"]
        assert report.foreign == ["NOTES.txt"]
        fixed = store.fsck(fix=True)
        assert fixed.repaired == 3  # corrupt cell + tmp + cost model
        after = store.fsck()
        assert after.ok and after.scanned == 1
        assert (store.root / "NOTES.txt").exists()  # foreign files untouched
        # The surviving cell still loads bit-identically.
        assert store.load(requests[1]).fingerprint() == serial[1].fingerprint()

    def test_store_fsck_orphans_unstamped_cells(self, tmp_path, requests, serial_stats):
        """A sound cell without epoch stamps was saved before cells
        carried them: no current fingerprint can be trusted to name it."""
        store = ResultStore(tmp_path / "store")
        store.save(requests[0], serial_stats[0])
        path = store.path_for(requests[0])
        payload = json.loads(path.read_text())
        del payload["model_epoch"], payload["trace_epoch"]
        path.write_text(json.dumps(payload))
        report = store.fsck()
        assert report.orphaned == [path.name] and not report.ok
        assert "1 orphaned" in report.describe()

    def test_fsck_names_a_missing_directory_and_creates_none(self, tmp_path, capsys):
        from repro.harness.cli import main

        typo, typo2 = tmp_path / "typo", tmp_path / "typo2"
        argv = ["fsck", "--cache-dir", str(typo), "--trace-cache-dir", str(typo2)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"no such directory: {typo}" in err
        assert f"no such directory: {typo2}" in err
        assert not typo.exists() and not typo2.exists()

    def test_fsck_names_only_the_missing_directory(self, tmp_path, capsys):
        from repro.harness.cli import main

        store, typo = tmp_path / "store", tmp_path / "typo"
        store.mkdir()
        argv = ["fsck", "--cache-dir", str(store), "--trace-cache-dir", str(typo)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.strip() == f"fsck: no such directory: {typo}"
        assert out == ""  # nothing is scanned while a directory is missing
        assert not typo.exists()

    def test_fsck_cli_fails_on_orphans_until_fixed(
        self, tmp_path, requests, serial_stats, capsys
    ):
        from repro.harness.cli import main

        store = ResultStore(tmp_path / "store")
        store.save(requests[0], serial_stats[0])
        path = store.path_for(requests[0])
        payload = json.loads(path.read_text())
        payload["trace_epoch"] -= 1
        path.write_text(json.dumps(payload))
        argv = ["fsck", "--cache-dir", str(store.root)]
        assert main(argv) == 1
        assert "1 orphaned" in capsys.readouterr().out
        assert main([*argv, "--fix"]) == 0
        assert main(argv) == 0 and not path.exists()

    def test_trace_cache_scrub(self, tmp_path):
        cache = TraceCache(tmp_path / "traces")
        data = encode_trace(generate_trace(spec_profile("gcc"), 1500))
        cache.save(f"good-key-e{TRACE_EPOCH}", data)
        flipped = bytearray(data)
        flipped[-1] ^= 0xFF
        cache.save(f"bad-key-e{TRACE_EPOCH}", bytes(flipped))
        (cache.root / "old-key.v0.svwt").write_bytes(b"ancient format")
        # Sound bytes under another trace epoch: no key names the file.
        other_epoch = f"other-key-e{TRACE_EPOCH - 1}"
        cache.save(other_epoch, data)
        report = cache.scrub()
        assert report.scanned == 4 and report.clean == 1
        assert len(report.corrupt) == 1 and not report.ok
        assert report.orphaned == ["old-key.v0.svwt", cache.path_for(other_epoch).name]
        cache.scrub(fix=True)
        after = cache.scrub()
        assert after.ok and after.scanned == 1 and not after.orphaned
        assert [p.name for p in cache.root.iterdir()] == [
            cache.path_for(f"good-key-e{TRACE_EPOCH}").name
        ]

    def test_trace_cache_orphans_the_previous_codec_version(self, tmp_path):
        """A file the previous codec wrote keeps its key but not its
        ``.v{CODEC_VERSION}`` suffix: no lookup reads it, scrub reports it
        and ``fix`` removes it."""
        cache = TraceCache(tmp_path / "traces")
        key = f"gcc-key-e{TRACE_EPOCH}"
        current = cache.path_for(key)
        previous = current.with_name(
            current.name.replace(f".v{CODEC_VERSION}.", f".v{CODEC_VERSION - 1}.")
        )
        previous.write_bytes(encode_trace(generate_trace(spec_profile("gcc"), 800)))
        assert cache.load(key) is None
        report = cache.scrub()
        assert report.orphaned == [previous.name] and not report.ok
        cache.scrub(fix=True)
        assert not previous.exists() and cache.scrub().ok

    def test_fsck_cli_scrubs_a_trace_cache_by_the_one_rule(self, tmp_path, capsys):
        """A stale tmp fails a trace cache's check and ``--fix`` deletes
        it; a foreign file is reported and kept."""
        from repro.harness.cli import main

        cache = TraceCache(tmp_path / "traces")
        key = f"gcc-key-e{TRACE_EPOCH}"
        tmp = cache.root / f".{cache.path_for(key).name}.k9x2ab.tmp"
        tmp.write_bytes(b"half a trace")
        notes = cache.root / "notes.txt"
        notes.write_text("a human was here")
        argv = ["fsck", "--trace-cache-dir", str(cache.root)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "1 stale tmp" in out and "1 foreign (left alone)" in out
        assert main([*argv, "--fix"]) == 0
        assert not tmp.exists() and notes.exists()
        assert main(argv) == 0

    def test_figure_result_from_dict_rejects_malformed(self):
        from repro.experiments import FigureResult

        with pytest.raises(ValueError, match="malformed FigureResult"):
            FigureResult.from_dict({"name": "fig5"})  # missing everything else
        with pytest.raises(ValueError, match="malformed FigureResult"):
            FigureResult.from_dict(
                {
                    "name": "x",
                    "baseline": "b",
                    "config_order": [],
                    "benchmarks": [],
                    "stats": "not a mapping",
                }
            )
