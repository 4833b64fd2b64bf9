"""The golden table, ``tests/goldens.json``, and its one reader.

The table must carry the current ``TRACE_EPOCH`` and exactly the cells of
:func:`repro.harness.goldens.golden_cells`, and every row must recompute
to its pinned fingerprint (the v2 rows with skip-ahead on and off).  A
deliberate move is an epoch bump: bump ``TRACE_EPOCH``, run ``svw-repro
goldens``, review the table diff.  The ``v2-goldens`` CI gate runs this
file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fuzz import fuzz_matrix
from repro.harness import goldens
from repro.harness.bench import BENCH_WORKLOADS, bench_configs
from repro.harness.cli import main
from repro.workloads.phased import PHASED_CATALOG
from repro.workloads.synthetic import TRACE_EPOCH

TABLE = Path(__file__).resolve().parents[1] / "goldens.json"
CELLS = goldens.golden_cells()


def load_table(path: Path) -> dict[str, str]:
    """The pinned rows at ``path``, refusing a stale or mismatched table."""
    table = json.loads(path.read_text())
    epoch = table.get("trace_epoch")
    if epoch != TRACE_EPOCH:
        raise ValueError(
            f"{path} is stamped trace_epoch {epoch} but the generator is at "
            f"trace_epoch {TRACE_EPOCH}: regenerate it with `svw-repro "
            f"goldens` and review the diff"
        )
    rows = table["rows"]
    missing = sorted(set(CELLS) - set(rows))
    extra = sorted(set(rows) - set(CELLS))
    if missing or extra:
        raise ValueError(
            f"{path} does not match golden_cells(): missing rows {missing}, "
            f"extra rows {extra}"
        )
    return rows


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return load_table(TABLE)


@pytest.fixture(scope="module")
def fresh() -> dict:
    """The whole table recomputed once, shared by every test below."""
    return goldens.build_table()


def test_table_matches_epoch_and_cells(pinned):
    assert sorted(pinned) == sorted(CELLS)


def test_trace_epoch_is_v2():
    assert TRACE_EPOCH == 2
    assert json.loads(TABLE.read_text())["trace_epoch"] == 2


def test_v2_rows_are_the_base_fuzz_matrix(pinned):
    """One v2 row per fuzz_matrix() cell without a ``+`` variant."""
    base = {name for name in fuzz_matrix() if "+" not in name}
    v2 = {k.removeprefix("v2/gcc/") for k in pinned if k.startswith("v2/")}
    assert v2 == base


def test_fig_rows_are_the_figure_configs(pinned):
    """One ``fig/gcc/<figure>/<config>`` row per fig5-7 configuration."""
    expected = {
        f"{figure}/{name}"
        for figure, configs in goldens.FIGURE_CONFIGS.items()
        for name in configs()
    }
    fig = {k.removeprefix("fig/gcc/") for k in pinned if k.startswith("fig/")}
    assert fig == expected
    assert len(fig) == 15


def test_phased_rows_cover_catalog(pinned):
    phased = {k.split("/")[1] for k in pinned if k.startswith("phased/")}
    assert sorted(phased) == sorted(PHASED_CATALOG)


def test_kernel_and_core_rows_cover_bench_configs(pinned):
    """The kernel row and each core workload pin every bench_configs() LSU."""
    lsus = sorted(bench_configs())
    for prefix in ["kernel/spill_fill"] + [f"core/{w}" for w in BENCH_WORKLOADS]:
        rows = sorted(
            k.removeprefix(prefix + "/") for k in pinned if k.startswith(prefix + "/")
        )
        assert rows == lsus, prefix


@pytest.mark.parametrize("stale", [1, None], ids=["1", "unstamped"])
def test_stale_epoch_fails_loudly(tmp_path, stale):
    """A table from another epoch, or one predating the ``trace_epoch``
    stamp, names both epochs instead of reporting every row."""
    table = json.loads(TABLE.read_text())
    if stale is None:
        del table["trace_epoch"]
    else:
        table["trace_epoch"] = stale
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(table))
    with pytest.raises(
        ValueError, match=rf"trace_epoch {stale} .* trace_epoch {TRACE_EPOCH}:"
    ):
        load_table(path)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_row_set_mismatch_fails(tmp_path, change):
    table = json.loads(TABLE.read_text())
    if change == "missing":
        del table["rows"]["spec/spill_fill"]
    else:
        table["rows"]["v2/gcc/nlq/none"] = "0" * 64
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(table))
    with pytest.raises(ValueError, match=f"{change} rows \\['"):
        load_table(path)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_golden_row(key, pinned, fresh):
    assert fresh["rows"][key] == pinned[key], (
        f"{key}: golden fingerprint moved -- if this is a deliberate "
        f"trace-identity or model change, bump TRACE_EPOCH and run "
        f"`svw-repro goldens`"
    )


@pytest.mark.parametrize("key", sorted(k for k in CELLS if k.startswith("v2/")))
def test_v2_row_without_skip_ahead(key, pinned):
    assert CELLS[key](skip_ahead=False) == pinned[key], key


def test_cli_writes_the_checked_in_table(tmp_path, monkeypatch, fresh):
    """``svw-repro goldens --out PATH`` writes the table byte for byte
    (the rows come from ``fresh``, so nothing is recomputed)."""
    monkeypatch.setattr(goldens, "build_table", lambda: fresh)
    path = tmp_path / "goldens.json"
    assert main(["goldens", "--out", str(path), "--quiet"]) == 0
    assert load_table(path).keys() == set(CELLS)
    assert path.read_text() == TABLE.read_text()
