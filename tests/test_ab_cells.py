"""``benchmarks/ab_cells.py``.  End to end, in a subprocess: an A/A run
of this checkout finds identical fingerprints (stage-timed runs included)
and prints the per-stage split, and a checkout that simulates other bits
exits 1 naming the cell that moved.  In process: the stage-timed
subclass simulates the same bits and times every stage, one side builds
and splits its cells, and the tool's usage errors."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.configs import fig5_configs
from repro.harness.goldens import bench_configs
from repro.pipeline.processor import Processor
from repro.workloads.spec2000 import spec_profile
from repro.workloads.synthetic import generate_trace

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
    stages = [line.split() for line in lines[2:8]]
    assert [words[:2] for words in stages] == [
        ["stage", stage] for stage in ("complete", "commit", "rex", "issue", "dispatch", "loop")
    ]
    for words in stages:
        assert words[2] == "parent" and words[4] == "change" and words[6].endswith("x")
        assert float(words[3].rstrip("s")) > 0 and float(words[5].rstrip("s")) > 0
    assert lines[8].startswith("cells 2 ") and "total" in lines[8] and "median cell" in lines[8]
    kinsts = lines[9].split()
    assert kinsts[:3] == ["committed", "kinst/s", "parent"] and kinsts[4] == "change"
    assert float(kinsts[3]) > 0 and float(kinsts[5]) > 0
    assert lines[10:] == ["fingerprints identical"]


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


# In process: the stage-timed subclass, one side's cells and split, and
# the tool's usage errors.

def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_cells", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_cells = _load_tool()


@pytest.fixture
def own_repro():
    """Put this process's ``repro`` modules back after a test builds a
    ``Side``, which imports a second copy and swaps it in."""
    saved = {name: module for name, module in sys.modules.items() if ab_cells._is_repro(name)}
    yield
    ab_cells._activate(saved)


@pytest.fixture(scope="module")
def gcc_trace():
    return generate_trace(spec_profile("gcc"), 2000)


@pytest.mark.parametrize("lsu", sorted(bench_configs()))
def test_stage_timed_run_simulates_the_same_bits(lsu, gcc_trace):
    """A stage-timed run of each LSU kind's cell commits the same bits as
    a plain run, and the plain class keeps its own stage methods."""
    _, config = bench_configs()[lsu]
    plain_methods = {stage: getattr(Processor, f"_do_{stage}") for stage in ab_cells.STAGES}
    split_class = ab_cells.stage_timed(Processor)
    assert issubclass(split_class, Processor)
    processor = split_class(config, gcc_trace, warmup=200)
    processor.stage_seconds = dict.fromkeys(ab_cells.STAGES, 0.0)
    timed = processor.run()
    plain = Processor(config, gcc_trace, warmup=200).run()
    assert timed.fingerprint() == plain.fingerprint()
    assert timed.cycles == plain.cycles
    assert {stage: getattr(Processor, f"_do_{stage}") for stage in ab_cells.STAGES} \
        == plain_methods
    assert not hasattr(Processor(config, gcc_trace), "stage_seconds")


@pytest.mark.parametrize("stage", ab_cells.STAGES)
def test_every_stage_is_timed(stage, gcc_trace):
    """``run()`` calls each stage method through the instance, so the
    subclass's wrapper sees it: a stage ``run()`` stopped calling would
    read 0 s here rather than silently in the tool's table."""
    _, config = bench_configs()["nlq"]
    processor = ab_cells.stage_timed(Processor)(config, gcc_trace, warmup=200)
    processor.stage_seconds = dict.fromkeys(ab_cells.STAGES, 0.0)
    processor.run()
    assert processor.stage_seconds[stage] > 0


def test_side_builds_each_figure_cell_and_splits_it(own_repro):
    side = ab_cells.Side(str(SRC), ["fig5"], None, 1500)
    cells = side.cells("gcc")
    assert sorted(cells) == sorted(("fig5", "gcc", label) for label in fig5_configs())
    cell = cells[("fig5", "gcc", "+SVW+UPD")]
    seconds, run_fingerprint, committed = side.run(cell)
    assert seconds > 0 and committed > 0
    split, split_fingerprint = side.split(cell)
    assert split_fingerprint == run_fingerprint
    assert list(split) == list(ab_cells.SPLIT)
    assert all(value > 0 for value in split.values())


def test_side_configs_keep_only_the_named_labels(own_repro):
    side = ab_cells.Side(str(SRC), ["fig5", "fig6"], {"baseline"}, 1500)
    assert sorted(side.cells("gcc")) == [("fig5", "gcc", "baseline"), ("fig6", "gcc", "baseline")]


def test_side_refuses_a_directory_without_repro(tmp_path, own_repro):
    with pytest.raises(SystemExit, match="does not hold repro"):
        ab_cells.Side(str(tmp_path), ["fig5"], None, 1500)


@pytest.mark.parametrize("insts", ["0", "-5"])
def test_nonpositive_insts_is_a_usage_error(insts, capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_cells.main([str(SRC), str(SRC), "--insts", insts])
    assert exit_info.value.code == 2
    assert "--insts must be positive" in capsys.readouterr().err


def test_no_matching_cell_exits_1(capsys, own_repro):
    status = ab_cells.main([str(SRC), str(SRC), "--experiments", "fig5", "--configs", "nosuch",
                            "--benchmarks", "gcc", "--insts", "500"])
    assert status == 1
    assert "no cell matches" in capsys.readouterr().err
