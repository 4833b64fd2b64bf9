"""``benchmarks/ab_cells.py`` end to end, in a subprocess: an A/A run of
this checkout finds identical fingerprints, and a checkout that simulates
other bits exits 1 naming the cell that moved."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "benchmarks" / "ab_cells.py"
SRC = REPO / "src"
#: One profile x two configs at 1k instructions.
CELLS = ["--experiments", "fig5", "--configs", "baseline,+SVW+UPD",
         "--benchmarks", "gcc", "--insts", "1000"]


def _ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), *CELLS],
        capture_output=True, text=True, timeout=300,
    )


def test_aa_run_reports_identical_fingerprints():
    result = _ab(SRC, SRC)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["fig5/gcc/baseline", "fig5/gcc/+SVW+UPD"]
    assert lines[-2].startswith("cells 2 ") and "total" in lines[-2] and "median cell" in lines[-2]
    assert lines[-1] == "fingerprints identical"


def test_other_bits_exit_1(tmp_path):
    mutant = tmp_path / "src"
    shutil.copytree(SRC / "repro", mutant / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    configs = mutant / "repro" / "harness" / "configs.py"
    text = configs.read_text()
    assert "NLQ_REX_STAGES = 2\n" in text
    configs.write_text(text.replace("NLQ_REX_STAGES = 2\n", "NLQ_REX_STAGES = 6\n"))
    result = _ab(SRC, mutant)
    assert result.returncode == 1
    assert "FINGERPRINT MISMATCH" in result.stdout
    assert "1 cell(s) simulate different bits: fig5/gcc/+SVW+UPD" in result.stderr
