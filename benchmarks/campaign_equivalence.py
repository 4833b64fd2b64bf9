"""CI gate for the campaign control plane.

Spins up the real service topology -- one ``svw-repro campaignd`` daemon
subprocess, two registered loopback worker subprocesses -- then submits
the quick figure sweep from **two concurrent clients** whose grids
overlap, SIGKILLs the daemon mid-campaign, restarts it on the same port
and cache directory, and requires:

- both clients finish with per-cell stats fingerprint-identical to
  :class:`~repro.experiments.backends.SerialBackend`;
- the overlap is simulated exactly once (the central store holds exactly
  the union, and the two daemons' dispatch counts sum to it);
- the restarted daemon re-dispatches **zero** cells that were already in
  the central store at the moment of the kill (journal + store resume);
- once both campaigns have ended, the restarted daemon holds no encoded
  trace (``traces_held`` is 0 in its ``stats`` reply): a trace's bytes
  live only while one of its cells is pending or in flight;
- ``svw-repro fsck --cache-dir <central>`` exits 0 after the run: every
  central cell is sound and stamped with the code's current epochs.

Run directly (``PYTHONPATH=src python benchmarks/campaign_equivalence.py``)
or via the ``campaign-equivalence`` CI job.  Exit code 0 iff every gate
holds.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from loopback import REPO, cli_env, free_port, spawn, wait_port

sys.path.insert(0, str(REPO / "src"))

from repro.experiments import ResultStore, SerialBackend, matrix_spec  # noqa: E402
from repro.experiments.campaign import CampaignBackend, CampaignClient  # noqa: E402
from repro.harness.configs import fig5_configs  # noqa: E402

INSTS = 4000


def quick_specs():
    """Two overlapping quick sweeps, as two users would submit them."""
    configs = fig5_configs()
    spec_a = matrix_spec(
        "fig5", dict(list(configs.items())[:4]), ["gcc", "vortex"], n_insts=INSTS
    )
    spec_b = matrix_spec(
        "fig5-overlap", dict(list(configs.items())[:3]), ["gcc", "crafty"], n_insts=INSTS
    )
    return spec_a, spec_b


def main() -> int:
    spec_a, spec_b = quick_specs()
    cells_a, cells_b = spec_a.cells(), spec_b.cells()
    union = {r.fingerprint() for r in cells_a} | {r.fingerprint() for r in cells_b}
    overlap = len(cells_a) + len(cells_b) - len(union)
    assert overlap > 0, "the two sweeps must overlap for this gate to mean anything"
    print(
        f"union {len(union)} cells ({len(cells_a)} + {len(cells_b)}, "
        f"{overlap} shared), serial baseline ..."
    )
    serial = {
        r.fingerprint(): s.fingerprint()
        for cells in (cells_a, cells_b)
        for r, s in zip(cells, SerialBackend().run(cells))
    }

    with tempfile.TemporaryDirectory(prefix="svw-campaign-ci-") as tmp:
        central = Path(tmp) / "central"
        port = free_port()
        address = f"127.0.0.1:{port}"
        daemon = spawn(
            ["campaignd", "--host", "127.0.0.1", "--port", str(port),
             "--cache-dir", str(central), "--quiet"]
        )
        workers = []
        try:
            wait_port(port)
            for i in (1, 2):
                workers.append(
                    spawn(
                        ["worker", "--host", "127.0.0.1", "--port", "0",
                         "--register", address, "--quiet"]
                    )
                )
            with CampaignClient(address) as probe:
                deadline = time.monotonic() + 60
                while len(probe.stats()["workers"]) < 2:
                    if time.monotonic() > deadline:
                        raise SystemExit("workers never registered")
                    time.sleep(0.2)
            print(f"daemon on :{port}, 2 workers registered")

            results: dict[str, list] = {}
            errors: list[BaseException] = []

            def submit(label: str, cells) -> None:
                try:
                    backend = CampaignBackend(address, retry_timeout=120, timeout=600)
                    results[label] = backend.run(cells)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=("a", cells_a)),
                threading.Thread(target=submit, args=("b", cells_b)),
            ]
            for thread in threads:
                thread.start()

            # Kill the daemon mid-campaign: as soon as some cells have been
            # dispatched and stored, SIGKILL it (no graceful shutdown).
            with CampaignClient(address) as probe:
                deadline = time.monotonic() + 300
                while probe.stats()["cells_simulated"] < 2:
                    if time.monotonic() > deadline:
                        raise SystemExit("campaign never started simulating")
                    time.sleep(0.1)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(30)
            stored_at_kill = len(ResultStore(central))
            print(f"daemon killed mid-campaign with {stored_at_kill} cells stored")

            # Restart on the same port + cache dir.  The journal resumes the
            # campaigns; the workers' registry loops reconnect on their own;
            # the clients' RPC layers retry through the outage.
            daemon = spawn(
                ["campaignd", "--host", "127.0.0.1", "--port", str(port),
                 "--cache-dir", str(central), "--quiet"]
            )
            wait_port(port)
            print("daemon restarted")

            for thread in threads:
                thread.join(600)
            if errors:
                raise SystemExit(f"a submitter failed: {errors[0]!r}")
            if any(thread.is_alive() for thread in threads):
                raise SystemExit("a submitter is still running after 600s")

            with CampaignClient(address) as probe:
                stats2 = probe.stats()
        finally:
            for proc in [daemon, *workers]:
                if proc.poll() is None:
                    proc.kill()
            for proc in [daemon, *workers]:
                proc.wait(30)

        failures = []
        for label, cells in (("a", cells_a), ("b", cells_b)):
            got = [s.fingerprint() for s in results[label]]
            want = [serial[r.fingerprint()] for r in cells]
            if got != want:
                failures.append(f"client {label}: fingerprints diverge from serial")
        store = ResultStore(central)
        if len(store) != len(union):
            failures.append(
                f"central store holds {len(store)} cells, expected the "
                f"union of {len(union)} (overlap simulated more than once?)"
            )
        recomputed = stats2["cells_simulated"] - (len(union) - stored_at_kill)
        if recomputed != 0:
            failures.append(
                f"restarted daemon dispatched {stats2['cells_simulated']} cells "
                f"but only {len(union) - stored_at_kill} were missing at the "
                f"kill: {recomputed} finished cells were recomputed"
            )
        if stats2["traces_held"] != 0:
            failures.append(
                f"restarted daemon still holds {stats2['traces_held']} encoded "
                "trace(s) after every campaign ended"
            )
        fsck = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "fsck", "--cache-dir", str(central)],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if fsck.returncode != 0:
            failures.append(
                f"fsck of the central store exited {fsck.returncode}: "
                f"{(fsck.stdout + fsck.stderr).strip()}"
            )
        print(
            f"store {len(store)}/{len(union)} cells; restart re-dispatched "
            f"{stats2['cells_simulated']} (missing at kill: "
            f"{len(union) - stored_at_kill}); traces held {stats2['traces_held']}; "
            f"fsck exit {fsck.returncode}"
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("campaign equivalence gate: PASS")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
