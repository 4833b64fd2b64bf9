"""The campaign control plane: submission payloads, the daemon's worker
registry and scheduler, multi-client dedup, restart-safe resume, and --
as with every backend -- bit-identical equivalence to
:class:`~repro.experiments.backends.SerialBackend`."""

from __future__ import annotations

import errno
import re
import socket
import threading

import pytest

from repro.experiments import (
    CampaignBackend,
    CampaignClient,
    CampaignDaemon,
    CampaignError,
    CellExecutionError,
    ResultStore,
    SerialBackend,
    WorkerAgent,
)
from repro.experiments.campaign import campaign_id_for, spec_campaign_id
from repro.experiments.remote import PROTOCOL_VERSION, parse_worker, recv_json, send_json
from repro.experiments.spec import RunRequest
from repro.harness.configs import fig5_configs
from repro.pipeline.stats import SimStats

class TestPayloads:
    """RunRequest to_payload/from_payload round trips are the protocol's
    correctness anchor: identical fingerprints mean identical content
    addresses on both sides of the wire."""

    def test_run_request_round_trip(self, requests):
        for request in requests:
            clone = RunRequest.from_payload(request.to_payload())
            assert clone.fingerprint() == request.fingerprint()
            assert clone.describe() == request.describe()

    def test_campaign_id_is_content_addressed(self, spec, small_spec):
        assert spec_campaign_id(spec) == spec_campaign_id(small_spec())
        other = small_spec(workloads=("gcc",))
        assert spec_campaign_id(spec) != spec_campaign_id(other)
        assert campaign_id_for("a", ["0" * 64]) != campaign_id_for("b", ["0" * 64])


class TestEquivalence:
    def test_two_workers_bit_identical_to_serial(
        self, tmp_path, requests, serial_fingerprints
    ):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as a, WorkerAgent() as b:
                a.register_with(daemon.address)
                b.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                assert [s.fingerprint() for s in stats] == serial_fingerprints
                # Both agents actually participated and every cell ran once.
                assert a.jobs_done > 0 and b.jobs_done > 0
                assert a.jobs_done + b.jobs_done == len(requests)
                assert daemon.cells_simulated == len(requests)
                with CampaignClient(daemon.address) as client:
                    shipped = client.stats()["traces_shipped"]
                assert shipped == a.trace_misses + b.trace_misses

    def test_results_positionally_aligned(self, tmp_path, requests, serial_stats):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                for ours, theirs in zip(stats, serial_stats):
                    assert ours.fingerprint() == theirs.fingerprint()

    def test_configs_differing_only_in_name_keep_their_names(self, tmp_path, small_spec):
        base = fig5_configs()["baseline"]
        requests = small_spec(
            "rename", workloads=("gcc",),
            configs={"baseline": base, "renamed": base.derive("renamed")},
        ).cells()
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
        serial = SerialBackend().run(requests)
        assert [s.config_name for s in stats] == [base.name, "renamed"]
        assert [s.fingerprint() for s in stats] == [s.fingerprint() for s in serial]

    def test_campaign_backend_from_address(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                backend = CampaignBackend(daemon.address)
                assert len(backend.run(requests)) == len(requests)


class TestDedup:
    def test_concurrent_overlapping_campaigns_simulate_union_once(
        self, tmp_path, small_spec, serial_fingerprints
    ):
        # Two submitters share one daemon; their grids overlap on the
        # first two configs.  The union must be simulated exactly once.
        spec_a = small_spec(name="user-a", n_configs=3)
        spec_b = small_spec(name="user-b", n_configs=2)
        union = {r.fingerprint() for r in spec_a.cells()} | {
            r.fingerprint() for r in spec_b.cells()
        }
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                results: dict[str, list] = {}
                errors: list[Exception] = []

                def submit(label, spec):
                    try:
                        results[label] = CampaignBackend(daemon.address).run(spec.cells())
                    except Exception as exc:  # pragma: no cover - surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submit, args=("a", spec_a)),
                    threading.Thread(target=submit, args=("b", spec_b)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not errors
                assert daemon.cells_simulated == len(union)
                assert agent.jobs_done == len(union)
        # Campaign A covers the shared spec's grid: same stats.
        assert [s.fingerprint() for s in results["a"]] == serial_fingerprints

    def test_attach_counts_shared_cells(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                CampaignBackend(daemon.address).run(requests)
                before = daemon.cells_simulated
                # A different campaign over the same cells: everything is
                # already in the store, nothing is dispatched.
                with CampaignClient(daemon.address) as client:
                    reply = client.submit(cells=requests, name="second-user")
                    assert reply["state"] == "done"
                    assert reply["done"] == reply["total"] == len(requests)
                assert daemon.cells_simulated == before

    def test_submit_command_and_backend_share_one_campaign(self, tmp_path, capsys):
        """``svw-repro submit fig5`` sends the spec's cells under its name,
        so it prints the id ``spec_campaign_id`` derives, and a later
        backend run of the same spec attaches to that campaign."""
        from repro.harness.cli import main
        from repro.harness.figures import EXPERIMENTS

        spec = EXPERIMENTS["fig5"](["gcc"], 1000)
        campaign_id = spec_campaign_id(spec)
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            argv = ["submit", "fig5", "--campaign", daemon.address,
                    "--benchmarks", "gcc", "--insts", "1000"]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"campaign {campaign_id}"
            notes: list[str] = []
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                CampaignBackend(daemon.address).run(spec.cells(), progress=notes.append)
            assert f"fig5: attached to campaign {campaign_id[:12]}" in notes[0]
            assert daemon.cells_simulated == len(spec.cells())

    def test_warm_store_submission_is_pure_read(
        self, tmp_path, requests, serial_stats, serial_fingerprints
    ):
        central = tmp_path / "central"
        store = ResultStore(central)
        for request, stats in zip(requests, serial_stats):
            store.save(request, stats)
        with CampaignDaemon(cache_dir=central) as daemon:
            # No workers registered at all: the store must answer everything.
            stats = CampaignBackend(daemon.address).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert daemon.cells_simulated == 0
            assert daemon.cells_from_store == len(requests)


class TestRestartResume:
    def test_daemon_restart_resumes_from_journal(
        self, tmp_path, spec, requests, serial_fingerprints
    ):
        central = tmp_path / "central"
        # Submit with no workers: the campaign is journalled but no cell
        # can run.  Kill the daemon mid-campaign.
        daemon1 = CampaignDaemon(cache_dir=central).start()
        with CampaignClient(daemon1.address) as client:
            reply = client.submit(cells=spec.cells(), name=spec.name)
            campaign_id = reply["campaign"]
            assert reply["state"] == "running"
        port = daemon1.port
        daemon1.close()
        # Restart on the same port + cache dir: the journal resurrects the
        # campaign; a freshly registered worker finishes it.
        with CampaignDaemon(port=port, cache_dir=central) as daemon2:
            with WorkerAgent() as agent:
                agent.register_with(daemon2.address)
                with CampaignClient(daemon2.address) as client:
                    status = client.wait(campaign_id, timeout=120)
                    assert status["state"] == "done"
                    payloads = client.results(campaign_id)["results"]
            assert [
                payloads[r.fingerprint()]["fingerprint"] for r in requests
            ] == serial_fingerprints
        assert campaign_id == spec_campaign_id(spec)

    def test_restart_recomputes_only_missing_cells(
        self, tmp_path, requests, serial_stats, serial_fingerprints
    ):
        central = tmp_path / "central"
        # Pre-fill the store with a strict subset (as if the first daemon
        # died mid-campaign after completing 4 cells).
        store = ResultStore(central)
        completed = 4
        for request, stats in zip(requests[:completed], serial_stats):
            store.save(request, stats)
        with CampaignDaemon(cache_dir=central) as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                assert [s.fingerprint() for s in stats] == serial_fingerprints
                # Zero recompute: only the missing cells were dispatched.
                assert daemon.cells_from_store == completed
                assert daemon.cells_simulated == len(requests) - completed
                assert agent.jobs_done == len(requests) - completed

    def test_client_resubmit_after_forgetful_restart(self, tmp_path, requests):
        # A daemon restarted *without* a journal (no cache_dir) forgets the
        # campaign; CampaignBackend's idempotent resubmit recovers.
        daemon1 = CampaignDaemon().start()
        port = daemon1.port
        with CampaignClient(daemon1.address) as client:
            campaign_id = client.submit(cells=requests, name="lost")["campaign"]
        daemon1.close()
        with CampaignDaemon(port=port) as daemon2:
            with WorkerAgent() as agent:
                agent.register_with(daemon2.address)
                with CampaignClient(daemon2.address) as client:
                    with pytest.raises(CampaignError, match="unknown campaign"):
                        client.status(campaign_id)
                    status = client.wait(
                        campaign_id,
                        timeout=120,
                        resubmit=lambda: client.submit(cells=requests, name="lost"),
                    )
                    assert status["state"] == "done"


class TestFleet:
    def test_heartbeat_timeout_deregisters_and_requeues(
        self, tmp_path, requests, wait_for
    ):
        with CampaignDaemon(
            cache_dir=tmp_path / "central", heartbeat_timeout=1.0
        ) as daemon:
            with CampaignClient(daemon.address) as client:
                agent = WorkerAgent()
                agent.start()
                agent.register_with(daemon.address, heartbeat_interval=0.2)
                wait_for(
                    lambda: client.stats()["workers"], message="worker registration"
                )
                # Kill the worker: heartbeats stop, the daemon deregisters
                # it and the fleet is empty again.
                agent.close()
                wait_for(
                    lambda: not client.stats()["workers"],
                    timeout=30,
                    message="heartbeat-timeout deregistration",
                )
                # Work submitted meanwhile is still completable by a
                # replacement worker.
                campaign_id = client.submit(cells=requests[:2], name="requeue")[
                    "campaign"
                ]
                with WorkerAgent() as replacement:
                    replacement.register_with(daemon.address, heartbeat_interval=0.2)
                    status = client.wait(campaign_id, timeout=120)
                    assert status["state"] == "done"

    @pytest.mark.parametrize("leave", ["close", "unknown_frame"])
    def test_worker_leaving_its_registry_link_is_deregistered_at_once(
        self, wait_for, leave
    ):
        """A closed registry link, or a frame the registry does not speak
        (such as an older agent's ``drain``), deregisters the worker
        without waiting out the heartbeat timeout."""
        with CampaignDaemon(heartbeat_timeout=120.0) as daemon, WorkerAgent() as agent:
            with CampaignClient(daemon.address) as client:
                registry = socket.create_connection(parse_worker(daemon.address))
                with registry:
                    send_json(
                        registry,
                        {
                            "type": "register",
                            "protocol": PROTOCOL_VERSION,
                            "port": agent.port,
                        },
                    )
                    assert recv_json(registry)["type"] == "registered"
                    wait_for(
                        lambda: client.stats()["workers"], message="worker registration"
                    )
                    if leave == "unknown_frame":
                        send_json(registry, {"type": "drain"})
                        wait_for(
                            lambda: not client.stats()["workers"],
                            message="deregistration on an unknown frame",
                        )
                # Closed here, in both cases.
                wait_for(
                    lambda: not client.stats()["workers"],
                    message="deregistration on a closed link",
                )

    @pytest.mark.parametrize(
        "port, reason", [("x", "non-numeric port"), (70000, "out-of-range port"), (None, "")]
    )
    def test_malformed_register_is_refused(self, port, reason):
        with CampaignDaemon() as daemon, CampaignClient(daemon.address) as client:
            with socket.create_connection(parse_worker(daemon.address)) as registry:
                register = {"type": "register", "protocol": PROTOCOL_VERSION}
                if port is not None:
                    register["port"] = port
                send_json(registry, register)
                reply = recv_json(registry)
            assert reply["type"] == "error" and "bad register" in reply["message"]
            assert reason in reply["message"]
            assert client.stats()["workers"] == []

    def test_worker_reconnects_through_daemon_restart(self, tmp_path, requests, wait_for):
        central = tmp_path / "central"
        daemon1 = CampaignDaemon(cache_dir=central, heartbeat_timeout=2.0).start()
        port = daemon1.port
        with WorkerAgent() as agent:
            agent.register_with(
                daemon1.address, heartbeat_interval=0.2, retry_interval=0.2
            )
            with CampaignClient(daemon1.address) as client:
                wait_for(
                    lambda: client.stats()["workers"], message="initial registration"
                )
            daemon1.close()
            with CampaignDaemon(port=port, cache_dir=central) as daemon2:
                # The agent's registry loop reconnects on its own...
                with CampaignClient(daemon2.address) as client:
                    wait_for(
                        lambda: client.stats()["workers"],
                        message="re-registration after restart",
                    )
                # ...and the fleet is immediately usable.
                stats = CampaignBackend(daemon2.address).run(requests[:2])
                assert len(stats) == 2


class TestTraceLifetime:
    """The daemon's one provider holds a trace's bytes only while a cell
    of it is pending or in flight; the digest outlives them."""

    def test_no_bytes_held_between_campaigns(self, small_spec):
        later = dict(list(fig5_configs().items())[3:5])
        with CampaignDaemon() as daemon, WorkerAgent() as agent:
            agent.register_with(daemon.address)
            with CampaignClient(daemon.address) as client:
                for workload in ("gcc", "vortex"):
                    cells = small_spec(workload, workloads=(workload,)).cells()
                    assert len(CampaignBackend(daemon.address).run(cells)) == len(cells)
                    assert client.stats()["traces_held"] == 0
                shipped = client.stats()["traces_shipped"]
                jobs: list[dict] = []
                serve = agent._serve_job
                agent._serve_job = lambda conn, job: (jobs.append(job), serve(conn, job))
                # gcc again, on other configs: the released trace's digest
                # still pins every job, and the agent's memo answers it.
                again = small_spec(
                    "again", workloads=("gcc",), configs=later, baseline=next(iter(later))
                ).cells()
                CampaignBackend(daemon.address).run(again)
                stats = client.stats()
        assert len(jobs) == len(again)
        assert all(len(job.get("trace_sha256", "")) == 64 for job in jobs)
        assert stats["traces_shipped"] == shipped
        assert stats["traces_held"] == 0

    def test_cancel_releases_traces_without_live_cells(self, small_spec):
        a = small_spec("a", workloads=("gcc", "vortex")).cells()
        b = small_spec("b", workloads=("vortex",), n_configs=1).cells()
        with CampaignDaemon() as daemon, CampaignClient(daemon.address) as client:
            # No workers: every cell stays pending.  Hold both traces'
            # bytes, as answering a worker's need_trace would.
            a_id = client.submit(cells=a, name="a")["campaign"]
            client.submit(cells=b, name="b")
            for request in a:
                daemon._dispatcher._encode(request)
            assert client.stats()["traces_held"] == 2
            client.cancel(a_id)
            # gcc has no live cell left; vortex still has b's.
            assert client.stats()["traces_held"] == 1
            assert client.stats()["cells_pending"] == 1


class TestFailure:
    def test_cancel_releases_cells(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with CampaignClient(daemon.address) as client:
                # No workers: nothing can run, cancel must not hang.  The
                # submission name matches what CampaignBackend would use,
                # so the backend below attaches to the cancelled campaign.
                name = requests[0].experiment
                campaign_id = client.submit(cells=requests, name=name)["campaign"]
                reply = client.cancel(campaign_id)
                assert reply["state"] == "cancelled"
                assert client.status(campaign_id)["state"] == "cancelled"
                assert client.stats()["cells_pending"] == 0
                with pytest.raises(CellExecutionError, match="cancelled"):
                    CampaignBackend(daemon.address).run(requests)

    def test_store_write_failure_still_delivers(
        self, tmp_path, requests, serial_fingerprints, monkeypatch
    ):
        # A full disk under the central store must not strand the cell:
        # the write is best-effort, reported, and the in-memory result
        # still finishes the campaign.
        notes: list[str] = []
        with CampaignDaemon(
            cache_dir=tmp_path / "central", progress=notes.append
        ) as daemon:

            def disk_full(*args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(daemon.store, "save", disk_full)
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address, timeout=60).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert daemon.cells_simulated == len(requests)
            assert len(daemon.store) == 0
        assert sum("store write failed" in note for note in notes) == len(requests)

    def test_malformed_results_reply_is_a_cell_error(self, requests, monkeypatch):
        # No daemon: the client's replies are patched in, so each malformed
        # results payload reaches the backend's decode-and-verify step.
        request = requests[0]
        stats = SimStats().to_dict()
        entry = {"stats": stats, "fingerprint": SimStats().fingerprint()}
        fingerprint = request.fingerprint()
        monkeypatch.setattr(
            CampaignClient,
            "submit",
            lambda self, **kwargs: {"campaign": "c" * 64, "done": 0, "total": 1},
        )
        monkeypatch.setattr(
            CampaignClient, "wait", lambda self, *args, **kwargs: {"state": "done"}
        )
        cell = re.escape(request.describe())
        replies = [
            # An unknown stats key, then a non-object entry, name the cell;
            # a list in place of the results map names the campaign.
            ({fingerprint: {**entry, "stats": {**stats, "bogus": 1}}}, cell),
            ({fingerprint: ["not", "an", "object"]}, cell),
            ([entry], "not a map of cells"),
        ]
        for results, match in replies:
            monkeypatch.setattr(
                CampaignClient,
                "results",
                lambda self, campaign_id, results=results: {"results": results},
            )
            with pytest.raises(CellExecutionError, match=match):
                CampaignBackend("127.0.0.1:1").run([request])

    def test_unknown_campaign_is_a_clear_error(self, tmp_path):
        with CampaignDaemon() as daemon:
            with CampaignClient(daemon.address) as client:
                with pytest.raises(CampaignError, match="unknown campaign"):
                    client.status("f" * 64)

    def test_deterministic_cell_failure_fails_the_campaign(self, tmp_path, small_spec):
        # An unsimulatable cell (watchdog_cycles=0 trips immediately) must
        # fail the campaign with the cell's error, not hang or retry.
        from dataclasses import replace

        configs = {
            label: replace(config, watchdog_cycles=0)
            for label, config in list(fig5_configs().items())[:1]
        }
        bad = small_spec("bad", workloads=("gcc",), configs=configs)
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                with pytest.raises(CellExecutionError, match="failed"):
                    CampaignBackend(daemon.address).run(bad.cells())

    def test_submit_rejects_garbage(self, tmp_path):
        with CampaignDaemon() as daemon:
            with CampaignClient(daemon.address) as client:
                with pytest.raises(CampaignError, match="cells list"):
                    client._rpc({"type": "submit"})
                with pytest.raises(CampaignError, match="no cells"):
                    client._rpc({"type": "submit", "cells": []})
                with pytest.raises(CampaignError, match="cell payload"):
                    client._rpc({"type": "submit", "cells": [{"nope": 1}]})
