"""The differential fuzzer: plan determinism, matrix coverage, oracles.

The expensive two-phase gate (clean fleet run + planted mutant over real
worker processes) lives in ``benchmarks/fuzz_smoke.py``; these tests pin
the cheap invariants the gate builds on, plus an in-process run of the
planted-mutant detection so a broken oracle fails fast in tier 1.
"""

from __future__ import annotations

import pytest

from repro.experiments.fuzz import (
    FUZZ_WORKLOADS,
    FuzzReport,
    fuzz_matrix,
    plan_trials,
    run_fuzz,
)
from repro.harness.goldens import golden_cells
from repro.pipeline.config import LSUKind, RexMode
from repro.workloads.mutate import MUTATION_KINDS


class TestMatrix:
    def test_covers_every_golden_cell(self):
        """The golden table's v2 rows pin every valid LSUKind x RexMode
        cell of the matrix (NONE is conventional-only)."""
        valid = {
            f"{lsu.value}/{rex.value}"
            for lsu in LSUKind
            for rex in RexMode
            if rex is not RexMode.NONE or lsu is LSUKind.CONVENTIONAL
        }
        assert valid <= set(fuzz_matrix())
        v2 = {
            key.removeprefix("v2/gcc/")
            for key in golden_cells()
            if key.startswith("v2/")
        }
        assert v2 == valid

    def test_wraparound_variants_present(self):
        cells = fuzz_matrix()
        for name in ("ssq/reexecute+wrap8", "nlq/svw_only+wrap8"):
            assert cells[name].svw is not None
            assert cells[name].svw.ssn_bits == 8


class TestPlan:
    def test_pure_function_of_arguments(self):
        a = plan_trials(7, 5, list(FUZZ_WORKLOADS))
        b = plan_trials(7, 5, list(FUZZ_WORKLOADS))
        assert a == b

    def test_seed_changes_plan(self):
        a = plan_trials(7, 5, list(FUZZ_WORKLOADS))
        b = plan_trials(8, 5, list(FUZZ_WORKLOADS))
        assert a != b

    def test_every_trial_leads_with_alias(self):
        for trial in plan_trials(3, 8, list(FUZZ_WORKLOADS)):
            assert trial.mutation.ops[0].kind == "alias"
            for op in trial.mutation.ops:
                assert op.kind in MUTATION_KINDS
                trial.mutation.validate()

    def test_bases_drawn_from_workloads(self):
        names = {t.base for t in plan_trials(1, 20, ["gcc", "hot-dynamic"])}
        assert names <= {"gcc", "hot-dynamic"}


class TestRun:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_fuzz(11, rounds=1, workloads=["gcc"], n_insts=2500)

    def test_clean_core_fuzzes_clean(self, quick_report):
        assert quick_report.ok
        assert len(quick_report.verdicts) == 1
        assert set(quick_report.verdicts[0]) == set(fuzz_matrix())
        assert all(v != "DIVERGE" for v in quick_report.verdicts[0].values())

    def test_report_fingerprint_deterministic(self, quick_report):
        again = run_fuzz(11, rounds=1, workloads=["gcc"], n_insts=2500)
        assert again.fingerprint() == quick_report.fingerprint()

    def test_report_round_trips_to_json(self, quick_report):
        import json

        payload = json.loads(json.dumps(quick_report.to_dict()))
        assert payload["ok"] is True
        assert payload["fingerprint"] == quick_report.fingerprint()

    def test_describe_mentions_scale(self, quick_report):
        text = quick_report.describe()
        assert "1 trials" in text and "clean" in text


class TestPlantedMutant:
    def test_weak_upd_is_caught_with_minimized_reproducer(self, monkeypatch):
        """The in-process half of the fuzz-smoke gate: weakening the SVW
        ``+UPD`` rule must surface as golden-mismatch divergences whose
        reproducers regenerate the failure."""
        monkeypatch.setenv("SVW_FUZZ_WEAK_UPD", "1")
        report = run_fuzz(42, rounds=2)
        assert not report.ok
        mismatches = [d for d in report.divergences if d.kind == "golden-mismatch"]
        assert mismatches, [d.kind for d in report.divergences]
        for div in mismatches:
            repro = div.reproducer
            assert set(repro) == {
                "base",
                "workload_key",
                "seed",
                "mutation",
                "cell",
                "n_insts",
            }
            assert repro["mutation"]["ops"], "minimization emptied the mutation"

    def test_same_plan_is_clean_without_the_mutant(self, monkeypatch):
        monkeypatch.delenv("SVW_FUZZ_WEAK_UPD", raising=False)
        assert run_fuzz(42, rounds=2).ok


def test_report_ok_reflects_divergences():
    report = FuzzReport(seed=0, rounds=0, n_insts=0, workloads=[], cells=[])
    assert report.ok
