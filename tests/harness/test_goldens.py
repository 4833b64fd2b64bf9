"""The golden table, ``tests/goldens.json``, and its one reader.

The table must carry the current ``MODEL_EPOCH`` and ``TRACE_EPOCH``
(:mod:`repro.fingerprint`) and exactly the cells of
:func:`repro.harness.goldens.golden_cells`, and every row must recompute
to its pinned fingerprint (the v2 and spec-updates rows with skip-ahead
on and off).  A
deliberate move is an epoch bump: a timing-model change bumps
``MODEL_EPOCH``, a trace-generator change bumps ``TRACE_EPOCH``; then run
``svw-repro goldens`` and review the table diff.  The ``v2-goldens`` CI
gate runs this file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fuzz import fuzz_matrix
from repro.fingerprint import MODEL_EPOCH, TRACE_EPOCH
from repro.harness import goldens
from repro.harness.cli import main
from repro.harness.configs import fig6_configs, spec_updates_configs
from repro.harness.goldens import BENCH_WORKLOADS, bench_configs
from repro.pipeline.config import LSUKind
from repro.workloads.phased import PHASED_CATALOG

TABLE = Path(__file__).resolve().parents[1] / "goldens.json"
#: Row keys only, for parametrization: the thunks (and the traces they
#: build) live in the module-scoped ``cells`` fixture.
KEYS = sorted(goldens.golden_cells())
#: The code epochs a table must be stamped with.
EPOCHS = {"model_epoch": MODEL_EPOCH, "trace_epoch": TRACE_EPOCH}


def load_table(path: Path) -> dict[str, str]:
    """The pinned rows at ``path``, refusing a stale or mismatched table."""
    table = json.loads(path.read_text())
    for name, current in EPOCHS.items():
        stamped = table.get(name)
        if stamped != current:
            raise ValueError(
                f"{path} is stamped {name} {stamped} but the code is at "
                f"{name} {current}: regenerate it with `svw-repro goldens` "
                f"and review the diff"
            )
    rows = table["rows"]
    missing = sorted(set(KEYS) - set(rows))
    extra = sorted(set(rows) - set(KEYS))
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
def cells() -> dict:
    """One set of golden cells, so each trace is built once per module."""
    return goldens.golden_cells()


@pytest.fixture(scope="module")
def fresh(cells) -> dict:
    """The whole table recomputed once by ``build_table`` over ``cells``,
    shared by every test below."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(goldens, "golden_cells", lambda: cells)
        return goldens.build_table()


def test_table_matches_epoch_and_cells(pinned):
    assert sorted(pinned) == KEYS


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


def test_spec_updates_rows_are_the_spec_updates_configs(pinned):
    """One ``spec-updates/gcc/<config>`` row per spec-updates configuration.
    ``speculative`` is fig6's ``+SVW+UPD`` machine under its own name."""
    rows = {
        k.removeprefix("spec-updates/gcc/")
        for k in pinned
        if k.startswith("spec-updates/")
    }
    assert rows == set(spec_updates_configs()) == {"baseline", "speculative"}
    assert (
        spec_updates_configs()["speculative"].fingerprint()
        == fig6_configs()["+SVW+UPD"].fingerprint()
    )


def test_phased_rows_cover_catalog(pinned):
    phased = {k.split("/")[1] for k in pinned if k.startswith("phased/")}
    assert sorted(phased) == sorted(PHASED_CATALOG)


def test_kernel_and_core_rows_cover_bench_configs(pinned):
    """The kernel row and each core workload pin every bench_configs() LSU,
    one per LSU kind."""
    lsus = sorted(bench_configs())
    assert lsus == sorted(kind.value for kind in LSUKind)
    for prefix in ["kernel/spill_fill"] + [f"core/{w}" for w in BENCH_WORKLOADS]:
        rows = sorted(
            k.removeprefix(prefix + "/") for k in pinned if k.startswith(prefix + "/")
        )
        assert rows == lsus, prefix


@pytest.mark.parametrize("lsu", sorted(bench_configs()))
def test_bench_config_is_the_figure_cell_it_names(lsu):
    """Each bench_configs() entry is its LSU kind's config, the very cell
    of the figure its label names, rebuilt equal on every call."""
    label, config = bench_configs()[lsu]
    figure, name = label.split("/", 1)
    assert config.lsu is LSUKind(lsu)
    assert config.fingerprint() == goldens.FIGURE_CONFIGS[figure]()[name].fingerprint()
    assert config.fingerprint() == bench_configs()[lsu][1].fingerprint()


@pytest.mark.parametrize(
    "epoch, stale",
    [("trace_epoch", 1), ("trace_epoch", None), ("model_epoch", 0), ("model_epoch", None)],
    ids=["1", "unstamped", "model-0", "model-unstamped"],
)
def test_stale_epoch_fails_loudly(tmp_path, epoch, stale):
    """A table from another epoch of either kind, or one predating its
    stamp, names the epoch and both values instead of reporting every
    row."""
    table = json.loads(TABLE.read_text())
    if stale is None:
        del table[epoch]
    else:
        table[epoch] = stale
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(table))
    with pytest.raises(
        ValueError, match=rf"{epoch} {stale} .* {epoch} {EPOCHS[epoch]}:"
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


@pytest.mark.parametrize("key", KEYS)
def test_golden_row(key, pinned, fresh):
    assert fresh["rows"][key] == pinned[key], (
        f"{key}: golden fingerprint moved -- if this is deliberate, bump "
        f"MODEL_EPOCH (a timing-model change) or TRACE_EPOCH (a trace-"
        f"generator change) in repro.fingerprint, run `svw-repro goldens` "
        f"and review the table diff"
    )


@pytest.mark.parametrize("key", [k for k in KEYS if k.startswith("v2/")])
def test_v2_row_without_skip_ahead(key, pinned, cells):
    assert cells[key](skip_ahead=False) == pinned[key], key


@pytest.mark.parametrize("key", [k for k in KEYS if k.startswith("spec-updates/")])
def test_spec_updates_row_without_skip_ahead(key, pinned, cells):
    assert cells[key](skip_ahead=False) == pinned[key], key


def test_cli_writes_the_checked_in_table(tmp_path, monkeypatch, fresh):
    """``svw-repro goldens --json PATH`` writes the table byte for byte
    (the rows come from ``fresh``, so nothing is recomputed)."""
    monkeypatch.setattr(goldens, "build_table", lambda: fresh)
    path = tmp_path / "goldens.json"
    assert main(["goldens", "--json", str(path), "--quiet"]) == 0
    assert load_table(path).keys() == set(KEYS)
    assert path.read_text() == TABLE.read_text()


def test_cli_writes_the_table_in_place_without_json(tmp_path, monkeypatch, fresh):
    """With no ``--json``, ``svw-repro goldens`` rewrites
    ``tests/goldens.json`` under the working directory."""
    monkeypatch.setattr(goldens, "build_table", lambda: fresh)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests").mkdir()
    assert main(["goldens", "--quiet"]) == 0
    assert (tmp_path / goldens.GOLDENS_PATH).read_text() == TABLE.read_text()
