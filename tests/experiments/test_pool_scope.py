"""The session worker fleet behind ``BatchRunner`` (``--jobs N``).

The tests share the session fleets like any other sweep would; a test
that needs a killed, replaced or stopped fleet brings that about itself.
"""

from __future__ import annotations

import os
import signal

import repro.experiments.pool as pool_mod
from repro.experiments import BatchRunner
from repro.experiments.pool import session_fleet, shutdown_session_pools


def fleet_agents(workers):
    return [agent for agent, _ in pool_mod._session_fleets[workers]]


class TestSessionPool:
    def test_session_pool_is_reused_across_runs(self, family_spec, family_serial):
        first_runner = BatchRunner(jobs=2)
        first = first_runner.run(family_spec.cells())
        agents = fleet_agents(first_runner.workers)
        second = BatchRunner(jobs=2).run(family_spec.cells())
        # The same long-lived agents served both sweeps...
        assert fleet_agents(first_runner.workers) == agents
        assert all(agent.poll() is None for agent in agents)
        # ...and results stay bit-identical to serial either way.
        assert [s.fingerprint() for s in first] == [s.fingerprint() for s in family_serial]
        assert [s.fingerprint() for s in second] == [s.fingerprint() for s in family_serial]

    def test_shutdown_leaves_no_process_behind(self, family_spec):
        """Shutdown reaps every agent of every fleet."""
        runner = BatchRunner(jobs=2)
        runner.run(family_spec.cells())
        session_fleet(1)
        agents = fleet_agents(runner.workers) + fleet_agents(1)
        shutdown_session_pools()
        assert pool_mod._session_fleets == {}
        assert all(agent.returncode is not None for agent in agents)

    def test_shutdown_is_idempotent(self):
        session_fleet(2)
        assert pool_mod._session_fleets
        shutdown_session_pools()
        assert pool_mod._session_fleets == {}
        shutdown_session_pools()

    def test_broken_pool_is_replaced(self):
        addresses = session_fleet(2)
        dead, survivor = fleet_agents(2)
        dead.kill()
        dead.wait()
        replacement = session_fleet(2)
        assert set(replacement).isdisjoint(addresses)
        assert survivor.returncode is not None  # reaped with its fleet
        assert all(agent.poll() is None for agent in fleet_agents(2))

    def test_agent_killed_mid_sweep_costs_a_redispatch(self, family_spec, family_serial):
        """SIGKILL one agent after the first finished cell: its cells are
        re-dispatched to the survivor, the sweep matches serial, and the
        next run gets a fleet whose agents are all alive."""
        requests = family_spec.cells()
        runner = BatchRunner(jobs=2)
        runner.workers = 2  # two agents even on a one-core host
        session_fleet(runner.workers)
        victim = fleet_agents(runner.workers)[0]

        def kill_after_first_cell(message):
            if "[done" in message and victim.poll() is None:
                os.kill(victim.pid, signal.SIGKILL)

        results = runner.run(requests, progress=kill_after_first_cell)
        assert victim.wait(timeout=10) == -signal.SIGKILL
        assert [s.fingerprint() for s in results] == [s.fingerprint() for s in family_serial]

        again = runner.run(requests)
        agents = fleet_agents(runner.workers)
        assert victim not in agents
        assert all(agent.poll() is None for agent in agents)
        assert [s.fingerprint() for s in again] == [s.fingerprint() for s in family_serial]
