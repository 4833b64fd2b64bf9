"""CI gate for resilience: a seeded fault plan over the live topology.

Spins up the real campaign topology -- one ``svw-repro campaignd`` daemon
subprocess and two registered loopback worker subprocesses -- and runs a
quick sweep while a deterministic :class:`~repro.experiments.faults.FaultPlan`
injects every failure mode the tier claims to survive:

- **worker crash mid-job**: worker 1 runs ``crash_after=3`` and dies like
  kill -9 (exit code :data:`~repro.experiments.faults.CRASH_EXIT_CODE`)
  on its fourth job; the harness respawns a clean replacement once the
  first daemon has been killed and restarted;
- **straggling beyond the job deadline**: worker 2 stalls its early jobs
  8s against a 4s ``--job-deadline``; the daemon re-dispatches and
  strikes it (three strikes organically exercise quarantine + backoff
  readmission);
- **frame corruption and truncation**: the daemon's plan damages trace
  payloads before framing; workers must reject on digest/CRC and
  re-request (or declare the connection lost), never compute on them;
- **daemon SIGKILL + restart** mid-campaign (after the first deadline
  strike, before the last cell is stored) on the same port and cache
  directory, with a **torn journal append** written behind its back so
  replay must skip the damaged final record;
- **torn journal appends** also fire from the daemon's own plan
  (``torn_append_rate``) while it runs.

Gates: the client's per-cell stats fingerprints are bit-identical to
:class:`~repro.experiments.backends.SerialBackend`; the central store
holds exactly the union of cells (each computed once per store) and every
stored result matches serial; worker memo stores merge conflict-free;
every planned fault kind demonstrably fired (stderr ``svw-fault:`` lines,
the crash exit code, the straggler counter); and the same plan spec
replayed through the same decision sequence fires the identical event
list (fault *reproducibility*).

Run directly (``PYTHONPATH=src python benchmarks/chaos_equivalence.py``)
or via the ``chaos-equivalence`` CI job.  Exit code 0 iff every gate
holds.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import (  # noqa: E402
    CampaignBackend,
    CampaignClient,
    FaultPlan,
    ResultStore,
    SerialBackend,
    matrix_spec,
)
from repro.experiments.faults import CRASH_EXIT_CODE  # noqa: E402
from repro.harness.configs import fig5_configs  # noqa: E402

INSTS = 4000

# Seeds chosen so the planned faults demonstrably fire early: worker 1
# crashes on its 4th job; worker 2's first three jobs stall 8s against the
# daemon's 4s deadline; the daemon's first trace transfers are damaged and
# its first journal appends torn.  The plans are deterministic, so these
# properties hold on every run.
WORKER1_PLAN = "seed=7,crash_after=3"
WORKER2_PLAN = "seed=2,delay_rate=0.3,delay_seconds=8,max_faults=3"
DAEMON_PLAN = "seed=11,corrupt_rate=0.5,truncate_rate=0.2,torn_append_rate=0.4,max_faults=5"
JOB_DEADLINE = "4"


def quick_spec():
    configs = dict(list(fig5_configs().items())[:4])
    return matrix_spec("fig5-chaos", configs, ["gcc", "vortex", "crafty"], n_insts=INSTS)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(args: list[str], stderr_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=open(stderr_path, "ab"),
    )


def wait_port(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise SystemExit(f"nothing listening on :{port} after {timeout}s")
            time.sleep(0.2)


def assert_plan_reproducibility() -> None:
    """Same spec + same decision sequence => byte-identical event list."""
    for spec in (WORKER1_PLAN, WORKER2_PLAN, DAEMON_PLAN):
        a, b = FaultPlan.from_spec(spec), FaultPlan.from_spec(spec)
        for plan in (a, b):
            for i in range(30):
                plan.job_fault("worker.job", jobs_done=i)
                plan.mutate_trace("daemon.trace", b"q" * 128)
                plan.torn_append("daemon.journal", 96)
        assert a.events == b.events, f"plan {spec!r} is not reproducible"
    print("fault plans replay byte-identically: OK")


def main() -> int:
    assert_plan_reproducibility()
    spec = quick_spec()
    cells = spec.cells()
    union = {r.fingerprint() for r in cells}
    print(f"{len(cells)} cells ({len(union)} unique), serial baseline ...")
    serial_stats = SerialBackend().run(cells)
    serial = [s.fingerprint() for s in serial_stats]
    serial_by_cell = {r.fingerprint(): s for r, s in zip(cells, serial_stats)}

    with tempfile.TemporaryDirectory(prefix="svw-chaos-ci-") as tmp:
        tmp_path = Path(tmp)
        central = tmp_path / "central"
        daemon_log = tmp_path / "daemon.log"
        port = free_port()
        address = f"127.0.0.1:{port}"

        def spawn_daemon() -> subprocess.Popen:
            return spawn(
                ["campaignd", "--host", "127.0.0.1", "--port", str(port),
                 "--cache-dir", str(central), "--quiet",
                 "--fault-plan", DAEMON_PLAN,
                 "--job-deadline", JOB_DEADLINE, "--max-attempts", "5"],
                daemon_log,
            )

        def spawn_worker(index: int, plan: str | None) -> subprocess.Popen:
            args = ["worker", "--host", "127.0.0.1", "--port", "0",
                    "--register", address, "--slots", "1",
                    "--cache-dir", str(tmp_path / f"worker-{index}"), "--quiet"]
            if plan is not None:
                args += ["--fault-plan", plan]
            return spawn(args, tmp_path / f"worker-{index}.log")

        daemon = spawn_daemon()
        workers: list[subprocess.Popen] = []
        crash_exit: list[int] = []
        stop_monitor = threading.Event()
        daemon_restarted = threading.Event()
        try:
            wait_port(port)
            workers.append(spawn_worker(1, WORKER1_PLAN))
            workers.append(spawn_worker(2, WORKER2_PLAN))

            def monitor_crash() -> None:
                # Worker 1 is scheduled to die mid-job; respawn a clean
                # replacement, as any supervisor would -- but only under
                # the restarted daemon.  Until the kill, the cell re-queued
                # by the first deadline strike then has no idle worker to
                # finish on, so the kill cannot race the campaign's end.
                workers[0].wait()
                if stop_monitor.is_set():
                    return
                crash_exit.append(workers[0].returncode)
                daemon_restarted.wait()
                if stop_monitor.is_set():
                    return
                workers.append(spawn_worker(3, None))

            threading.Thread(target=monitor_crash, daemon=True).start()

            with CampaignClient(address) as probe:
                deadline = time.monotonic() + 60
                while len(probe.stats()["workers"]) < 2:
                    if time.monotonic() > deadline:
                        raise SystemExit("workers never registered")
                    time.sleep(0.2)
            print(f"daemon on :{port}, 2 chaotic workers registered")

            results: list = []
            errors: list[BaseException] = []

            def submit() -> None:
                try:
                    backend = CampaignBackend(address, retry_timeout=180, timeout=900)
                    results.extend(backend.run(cells))
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            client_thread = threading.Thread(target=submit, daemon=True)
            client_thread.start()

            # SIGKILL the daemon once real progress exists AND worker 2's
            # first stalled job has struck the deadline: the straggler path
            # is then proven before the kill, whatever the restart's timing
            # (worker 2 re-registering with the new daemon in time to
            # straggle again is a race, not a property of the plan).
            pre_kill_stragglers = 0
            with CampaignClient(address) as probe:
                deadline = time.monotonic() + 300
                while True:
                    stats = probe.stats()
                    if stats["stragglers"] >= 1 and stats["cells_simulated"] >= 2:
                        pre_kill_stragglers = stats["stragglers"]
                        break
                    if time.monotonic() > deadline:
                        raise SystemExit("no job struck the deadline before the kill")
                    time.sleep(0.05)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(30)
            stored_at_kill = len(ResultStore(central))
            print(f"daemon SIGKILLed with {stored_at_kill} cells stored")
            assert stored_at_kill < len(union), (
                f"the kill landed after the campaign finished "
                f"({stored_at_kill}/{len(union)} cells stored)"
            )

            # Tear the journal behind the daemon's back -- the torn final
            # record a kill -9 mid-append leaves -- so the restart MUST
            # exercise tolerant replay no matter what its own plan tore.
            journals = sorted((central / "campaigns").glob("*.jsonl"))
            assert journals, "the daemon never journaled the campaign"
            with open(journals[0], "ab") as handle:
                handle.write(b'{"record": "cell", "fingerpr')
            print("journal tail torn by hand")

            daemon = spawn_daemon()
            wait_port(port)
            daemon_restarted.set()
            print("daemon restarted on the torn journal")

            client_thread.join(900)
            if errors:
                raise SystemExit(f"the client failed: {errors[0]!r}")
            if client_thread.is_alive():
                raise SystemExit("the client is still running after 900s")

            with CampaignClient(address) as probe:
                stats2 = probe.stats()
        finally:
            stop_monitor.set()
            daemon_restarted.set()
            for proc in [daemon, *workers]:
                if proc.poll() is None:
                    proc.kill()
            for proc in [daemon, *workers]:
                proc.wait(30)

        failures: list[str] = []
        got = [s.fingerprint() for s in results]
        if got != serial:
            failures.append("client fingerprints diverge from SerialBackend")
        store = ResultStore(central)
        if len(store) != len(union):
            failures.append(
                f"central store holds {len(store)} cells, expected exactly "
                f"the union of {len(union)}"
            )
        for fingerprint, stats in serial_by_cell.items():
            stored = store.load_stats(fingerprint)
            if stored is None or stored.fingerprint() != stats.fingerprint():
                failures.append(f"stored cell {fingerprint[:12]} diverges from serial")
                break
        merged = 0
        for index in (1, 2, 3):
            memo = tmp_path / f"worker-{index}"
            if memo.is_dir():
                report = store.merge(memo)  # raises on conflict
                merged += report.merged + report.identical

        # Fault coverage: every planned kind demonstrably fired.
        daemon_text = daemon_log.read_text(errors="replace")
        worker1_text = (tmp_path / "worker-1.log").read_text(errors="replace")
        worker2_text = (tmp_path / "worker-2.log").read_text(errors="replace")
        if not crash_exit:
            failures.append("worker 1 never crashed")
        elif crash_exit[0] != CRASH_EXIT_CODE:
            failures.append(
                f"worker 1 exited {crash_exit[0]}, not the planned "
                f"crash code {CRASH_EXIT_CODE}"
            )
        if "svw-fault: crash @worker.job" not in worker1_text:
            failures.append("worker 1 logged no crash fault")
        if "svw-fault: delay @worker.job" not in worker2_text:
            failures.append("worker 2 logged no delay (straggler) fault")
        if not any(
            f"svw-fault: {kind} @daemon.trace" in daemon_text
            for kind in ("corrupt", "truncate")
        ):
            failures.append("daemon logged no trace corruption/truncation fault")
        if "svw-fault: torn_append @daemon.journal" not in daemon_text:
            failures.append("daemon logged no torn journal append")
        total_stragglers = pre_kill_stragglers + stats2.get("stragglers", 0)
        if total_stragglers < 1:
            failures.append("no job ever struck the deadline (straggler path untested)")

        print(
            f"store {len(store)}/{len(union)} cells; worker memos folded "
            f"cleanly ({merged} checked); crash exit {crash_exit or 'n/a'}; "
            f"{total_stragglers} straggler strike(s); faults logged: "
            f"{sum(line.count('svw-fault:') for line in (daemon_text, worker1_text, worker2_text))}"
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("chaos equivalence gate: PASS")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
