"""CI gate for the differential re-execution fuzzer.

Two phases, both over a real two-worker loopback fleet
(``local_worker_fleet(2)``), both with the same seeded plan:

1. **Clean core** -- ``run_fuzz`` on the unmodified simulator must report
   **zero divergences** across every LSUKind x RexMode cell (including
   the narrow-SSN wraparound variants).  A failure here is a real
   re-execution bug, not a gate artifact.
2. **Planted mutant** -- the workers are respawned with
   ``SVW_FUZZ_WEAK_UPD=1``, a test-only flag that weakens the SVW
   ``+UPD`` rule (the filter claims invulnerability to every store
   renamed so far instead of just the forwarding store, so loads skip
   owed re-executions).  The same fuzz plan must now **detect** the
   mutant: at least one golden-mismatch divergence, each carrying a
   minimized reproducer (workload key + seed + mutation spec + cell).

Together the phases prove the fuzzer's oracle has power (it catches a
known-subtle semantic break) and precision (it is silent on a correct
core).  Determinism is asserted on the side: the clean phase's report
fingerprint must match a serial re-run of the same plan.

Run directly (``PYTHONPATH=src python benchmarks/fuzz_smoke.py``) or via
the ``fuzz-smoke`` CI job.  Exit code 0 iff every gate holds.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.fuzz import run_fuzz  # noqa: E402
from repro.experiments.remote import RemoteBackend, local_worker_fleet  # noqa: E402

SEED = 42
ROUNDS = 2

#: The test-only mutant switch read by SVWEngine at construction.
MUTANT_ENV = "SVW_FUZZ_WEAK_UPD"


def phase_clean() -> str:
    """The fuzzer must be silent on the unmodified core; returns the
    report fingerprint so determinism can be asserted against serial."""
    os.environ.pop(MUTANT_ENV, None)
    # The agents are spawned with the current environment.
    with local_worker_fleet(2) as fleet:
        report = run_fuzz(SEED, rounds=ROUNDS, backend=RemoteBackend(fleet))
    print(f"  {report.describe()}")
    if not report.ok:
        for div in report.divergences:
            print(f"  UNEXPECTED: {div.cell} [{div.kind}]: {div.error}", file=sys.stderr)
        raise SystemExit("FAIL: divergences reported on the unmodified core")
    return report.fingerprint()


def phase_mutant() -> None:
    """The same plan must flag the planted +UPD weakening."""
    os.environ[MUTANT_ENV] = "1"
    try:
        with local_worker_fleet(2) as fleet:
            report = run_fuzz(SEED, rounds=ROUNDS, backend=RemoteBackend(fleet))
    finally:
        del os.environ[MUTANT_ENV]
    print(f"  {report.describe()}")
    if report.ok:
        raise SystemExit(
            "FAIL: the planted weak-+UPD mutant escaped the fuzzer "
            f"(seed={SEED}, rounds={ROUNDS})"
        )
    mismatches = [d for d in report.divergences if d.kind == "golden-mismatch"]
    if not mismatches:
        kinds = sorted({d.kind for d in report.divergences})
        raise SystemExit(
            f"FAIL: mutant flagged only as {kinds}, never as a golden "
            "re-execution mismatch"
        )
    for div in mismatches:
        repro = div.reproducer
        missing = [
            key
            for key in ("base", "workload_key", "seed", "mutation", "cell", "n_insts")
            if key not in repro
        ]
        if missing:
            raise SystemExit(f"FAIL: reproducer missing {missing}: {repro}")
        ops = repro["mutation"]["ops"]  # type: ignore[index]
        print(
            f"  caught: {div.cell} via {repro['base']} "
            f"({len(ops)} mutation op(s) after minimization)"
        )


def main() -> int:
    print(f"fuzz-smoke phase 1/2: clean core (seed={SEED}, rounds={ROUNDS})")
    fleet_fp = phase_clean()
    serial_fp = run_fuzz(SEED, rounds=ROUNDS).fingerprint()
    if fleet_fp != serial_fp:
        raise SystemExit(
            f"FAIL: fleet report fingerprint {fleet_fp[:12]} != serial "
            f"{serial_fp[:12]} (fuzzing is not backend-deterministic)"
        )
    print(f"  fleet == serial fingerprint ({serial_fp[:12]}...)")
    print("fuzz-smoke phase 2/2: planted weak-+UPD mutant must be caught")
    phase_mutant()
    print("fuzz smoke gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
