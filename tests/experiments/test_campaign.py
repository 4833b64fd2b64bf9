"""The campaign control plane: submission payloads, the daemon's worker
registry and scheduler, multi-client dedup, restart-safe resume, and --
as with every backend -- bit-identical equivalence to
:class:`~repro.experiments.backends.SerialBackend`."""

from __future__ import annotations

import errno
import threading
import time

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
    matrix_spec,
)
from repro.experiments.campaign import campaign_id_for, spec_campaign_id
from repro.experiments.spec import ExperimentSpec, RunRequest
from repro.harness.configs import fig5_configs

INSTS = 1500


def small_spec(name="campaign-test", workloads=("gcc", "vortex"), n_configs=3):
    configs = dict(list(fig5_configs().items())[:n_configs])
    return matrix_spec(name, configs, list(workloads), n_insts=INSTS)


@pytest.fixture(scope="module")
def spec():
    return small_spec()


@pytest.fixture(scope="module")
def requests(spec):
    return spec.cells()


@pytest.fixture(scope="module")
def serial_fingerprints(requests):
    return [s.fingerprint() for s in SerialBackend().run(requests)]


def wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(interval)


class TestPayloads:
    """to_payload/from_payload round trips are the protocol's correctness
    anchor: identical fingerprints mean identical content addresses on
    both sides of the wire."""

    def test_run_request_round_trip(self, requests):
        for request in requests:
            clone = RunRequest.from_payload(request.to_payload())
            assert clone.fingerprint() == request.fingerprint()
            assert clone.describe() == request.describe()

    def test_spec_round_trip(self, spec, requests):
        clone = ExperimentSpec.from_payload(spec.to_payload())
        assert [r.fingerprint() for r in clone.cells()] == [
            r.fingerprint() for r in requests
        ]
        assert clone.name == spec.name
        assert clone.baseline == spec.baseline

    def test_campaign_id_is_content_addressed(self, spec):
        assert spec_campaign_id(spec) == spec_campaign_id(small_spec())
        other = small_spec(workloads=("gcc",))
        assert spec_campaign_id(spec) != spec_campaign_id(other)
        assert campaign_id_for("a", ["0" * 64]) != campaign_id_for("b", ["0" * 64])


class TestEquivalence:
    def test_two_workers_bit_identical_to_serial(
        self, tmp_path, requests, serial_fingerprints
    ):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent(slots=2) as a, WorkerAgent(slots=2) as b:
                a.register_with(daemon.address)
                b.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                assert [s.fingerprint() for s in stats] == serial_fingerprints
                # Both agents actually participated and every cell ran once.
                assert a.jobs_done > 0 and b.jobs_done > 0
                assert a.jobs_done + b.jobs_done == len(requests)
                assert daemon.cells_simulated == len(requests)

    def test_results_positionally_aligned(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                serial = SerialBackend().run(requests)
                for ours, theirs in zip(stats, serial):
                    assert ours.fingerprint() == theirs.fingerprint()

    def test_campaign_backend_from_address(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                backend = CampaignBackend(daemon.address)
                assert len(backend.run(requests)) == len(requests)


class TestDedup:
    def test_concurrent_overlapping_campaigns_simulate_union_once(
        self, tmp_path, serial_fingerprints
    ):
        # Two submitters share one daemon; their grids overlap on the
        # first two configs.  The union must be simulated exactly once.
        spec_a = small_spec(name="user-a", n_configs=3)
        spec_b = small_spec(name="user-b", n_configs=2)
        union = {r.fingerprint() for r in spec_a.cells()} | {
            r.fingerprint() for r in spec_b.cells()
        }
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent(slots=2) as agent:
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
        # Campaign A covers the module-level spec's grid: same stats.
        assert [s.fingerprint() for s in results["a"]] == serial_fingerprints

    def test_attach_counts_shared_cells(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent(slots=2) as agent:
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

    def test_warm_store_submission_is_pure_read(
        self, tmp_path, spec, requests, serial_fingerprints
    ):
        central = tmp_path / "central"
        store = ResultStore(central)
        for request, stats in zip(requests, SerialBackend().run(requests)):
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
            reply = client.submit(spec=spec)
            campaign_id = reply["campaign"]
            assert reply["state"] == "running"
        port = daemon1.port
        daemon1.close()
        # Restart on the same port + cache dir: the journal resurrects the
        # campaign; a freshly registered worker finishes it.
        with CampaignDaemon(port=port, cache_dir=central) as daemon2:
            with WorkerAgent(slots=2) as agent:
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
        self, tmp_path, requests, serial_fingerprints
    ):
        central = tmp_path / "central"
        # Pre-fill the store with a strict subset (as if the first daemon
        # died mid-campaign after completing 4 cells).
        store = ResultStore(central)
        serial = SerialBackend().run(requests)
        completed = 4
        for request, stats in zip(requests[:completed], serial):
            store.save(request, stats)
        with CampaignDaemon(cache_dir=central) as daemon:
            with WorkerAgent(slots=2) as agent:
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
            with WorkerAgent(slots=2) as agent:
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
    def test_graceful_drain(self, tmp_path, requests):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent(slots=1) as agent:
                agent.register_with(daemon.address)
                CampaignBackend(daemon.address).run(requests)
                assert agent.drain(timeout=30)
                # Drained workers leave the registry; new submissions wait.
                with CampaignClient(daemon.address) as client:
                    wait_for(
                        lambda: not client.stats()["workers"],
                        message="worker deregistration",
                    )

    def test_heartbeat_timeout_deregisters_and_requeues(self, tmp_path, requests):
        with CampaignDaemon(
            cache_dir=tmp_path / "central", heartbeat_timeout=1.0
        ) as daemon:
            with CampaignClient(daemon.address) as client:
                agent = WorkerAgent(slots=1)
                agent.start()
                agent.register_with(daemon.address, heartbeat_interval=0.2)
                wait_for(
                    lambda: client.stats()["workers"], message="worker registration"
                )
                # Kill the worker without drain: heartbeats stop, the daemon
                # deregisters it and the fleet is empty again.
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
                with WorkerAgent(slots=1) as replacement:
                    replacement.register_with(daemon.address, heartbeat_interval=0.2)
                    status = client.wait(campaign_id, timeout=120)
                    assert status["state"] == "done"

    def test_worker_reconnects_through_daemon_restart(self, tmp_path, requests):
        central = tmp_path / "central"
        daemon1 = CampaignDaemon(cache_dir=central, heartbeat_timeout=2.0).start()
        port = daemon1.port
        with WorkerAgent(slots=2) as agent:
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


class TestPrefetch:
    """Trace-push pipelining on the daemon's dispatch loops: the next
    pending workload's frame is encoded behind the current cell's
    simulation, one outstanding prefetch per worker slot."""

    def test_prefetch_hits_counted_and_bit_identical(
        self, tmp_path, requests, serial_fingerprints
    ):
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address).run(requests)
                assert [s.fingerprint() for s in stats] == serial_fingerprints
                # Two workloads, one cold worker: the second workload's
                # frame was prefetched behind the first's simulations.
                assert daemon.prefetch_hits >= 1
                with CampaignClient(daemon.address) as client:
                    assert client.stats()["prefetch_hits"] == daemon.prefetch_hits


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

            monkeypatch.setattr(daemon.store, "save_stats", disk_full)
            with WorkerAgent(slots=2) as agent:
                agent.register_with(daemon.address)
                stats = CampaignBackend(daemon.address, timeout=60).run(requests)
            assert [s.fingerprint() for s in stats] == serial_fingerprints
            assert daemon.cells_simulated == len(requests)
            assert len(daemon.store) == 0
        assert sum("store write failed" in note for note in notes) == len(requests)

    def test_unknown_campaign_is_a_clear_error(self, tmp_path):
        with CampaignDaemon() as daemon:
            with CampaignClient(daemon.address) as client:
                with pytest.raises(CampaignError, match="unknown campaign"):
                    client.status("f" * 64)

    def test_deterministic_cell_failure_fails_the_campaign(self, tmp_path):
        # An unsimulatable cell (watchdog_cycles=0 trips immediately) must
        # fail the campaign with the cell's error, not hang or retry.
        from dataclasses import replace

        configs = {
            label: replace(config, watchdog_cycles=0)
            for label, config in list(fig5_configs().items())[:1]
        }
        bad = matrix_spec("bad", configs, ["gcc"], n_insts=INSTS)
        with CampaignDaemon(cache_dir=tmp_path / "central") as daemon:
            with WorkerAgent() as agent:
                agent.register_with(daemon.address)
                with pytest.raises(CellExecutionError, match="failed"):
                    CampaignBackend(daemon.address).run(bad.cells())

    def test_submit_rejects_garbage(self, tmp_path):
        with CampaignDaemon() as daemon:
            with CampaignClient(daemon.address) as client:
                with pytest.raises(CampaignError, match="spec or"):
                    client._rpc({"type": "submit"})
                with pytest.raises(CampaignError, match="no cells"):
                    client._rpc({"type": "submit", "cells": []})
                with pytest.raises(CampaignError, match="cell payload"):
                    client._rpc({"type": "submit", "cells": [{"nope": 1}]})
