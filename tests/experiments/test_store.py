"""A ``ResultStore`` directory: cells written whole and stamped with the
code epochs, damaged or foreign entries read as misses, and the cost model
persisted next to them (never counted as a cell)."""

from __future__ import annotations

import json

import pytest

from repro import fingerprint as epochs
from repro import ioutil
from repro.experiments import CostModel, ResultStore, SerialBackend, matrix_spec
from repro.experiments.store import SCHEMA_VERSION
from repro.harness.configs import fig5_configs

INSTS = 1200


def two_cell_spec(name="store-test"):
    configs = dict(list(fig5_configs().items())[:2])
    return matrix_spec(name, configs, ["gcc"], n_insts=INSTS)


@pytest.fixture(scope="module")
def cells_and_stats():
    requests = two_cell_spec().cells()
    return requests, SerialBackend().run(requests)


def filled_store(root, requests, stats) -> ResultStore:
    store = ResultStore(root)
    for request, cell_stats in zip(requests, stats):
        store.save(request, cell_stats)
    return store


class TestStoreHygiene:
    def test_cost_model_file_is_not_a_cell(self, tmp_path, cells_and_stats):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests, stats)
        CostModel().save(store.cost_model_path)
        assert len(store) == 2  # auxiliary files are not cells

    def test_crash_mid_save_leaves_no_torn_cells(
        self, tmp_path, cells_and_stats, monkeypatch
    ):
        """A save interrupted at the rename leaves the whole cell or no
        cell, and no tmp debris -- the atomic-write contract under a crash."""
        requests, stats = cells_and_stats
        store = ResultStore(tmp_path / "store")
        real_replace = ioutil.os.replace
        calls = {"n": 0}

        def crashing_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("simulated crash at the rename")
            return real_replace(src, dst)

        monkeypatch.setattr(ioutil.os, "replace", crashing_replace)
        store.save(requests[0], stats[0])
        with pytest.raises(OSError, match="simulated crash"):
            store.save(requests[1], stats[1])
        monkeypatch.undo()
        assert [path.name for path in store.root.iterdir()] == [
            store.path_for(requests[0]).name
        ]
        assert store.fsck().ok and store.load(requests[1]) is None


def rewrite_cell(store, request, edit) -> str:
    """Apply ``edit`` to a saved cell's payload in place; the cell's name."""
    path = store.path_for(request)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path.name


class TestEpochStamps:
    def test_save_stamps_the_current_epochs(self, tmp_path, cells_and_stats):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests[:1], stats[:1])
        payload = json.loads(store.path_for(requests[0]).read_text())
        assert (payload["model_epoch"], payload["trace_epoch"]) == (
            epochs.MODEL_EPOCH,
            epochs.TRACE_EPOCH,
        )
        report = store.fsck()
        assert report.ok and (report.scanned, report.clean) == (1, 1)

    def test_unstamped_cell_still_loads(self, tmp_path, cells_and_stats):
        """A cell saved before cells carried stamps is still served (its
        address is its key); only fsck flags it as an orphan."""
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests[:1], stats[:1])

        def unstamp(payload):
            del payload["model_epoch"], payload["trace_epoch"]

        name = rewrite_cell(store, requests[0], unstamp)
        assert store.load(requests[0]).fingerprint() == stats[0].fingerprint()
        assert store.fsck().orphaned == [name]

    @pytest.mark.parametrize("stamp", ["model_epoch", "trace_epoch"])
    def test_one_stale_stamp_orphans_the_cell(self, tmp_path, cells_and_stats, stamp):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests[:1], stats[:1])

        def age(payload):
            payload[stamp] -= 1

        name = rewrite_cell(store, requests[0], age)
        report = store.fsck()
        assert report.orphaned == [name] and report.clean == 0
        assert not report.corrupt and not report.ok

    def test_fix_deletes_orphans_and_keeps_current_cells(
        self, tmp_path, cells_and_stats
    ):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests, stats)

        def age(payload):
            payload["model_epoch"] -= 1

        rewrite_cell(store, requests[0], age)
        assert store.fsck(fix=True).repaired == 1
        rescan = store.fsck()
        assert rescan.ok and (rescan.scanned, rescan.clean) == (1, 1)
        assert store.load(requests[0]) is None
        assert store.load(requests[1]).fingerprint() == stats[1].fingerprint()


class TestLoad:
    @pytest.mark.parametrize(
        "content",
        ["", "{broken", json.dumps({"schema": 999, "stats": {}}),
         json.dumps({"schema": SCHEMA_VERSION})],
    )
    def test_damaged_cells_are_counted_misses(
        self, tmp_path, cells_and_stats, content
    ):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests[:1], stats[:1])
        path = store.path_for(requests[0])
        path.write_text(content)
        assert store.load(requests[0]) is None
        assert (store.hits, store.misses) == (0, 1)
        assert store.fsck().corrupt == [path.name]

    @pytest.mark.parametrize("address", ["../" + "a" * 61, "A" * 64, "a" * 63])
    def test_non_cell_addresses_are_refused(self, tmp_path, address):
        """A raw address from the wire can neither escape the store
        directory nor name an auxiliary file: it is refused, and a lookup
        by it is a miss."""
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="not a cell fingerprint"):
            store.fingerprint_path(address)
        assert store.load_stats(address) is None and store.misses == 1

    def test_auxiliary_files_are_not_cells(self, tmp_path, cells_and_stats):
        requests, stats = cells_and_stats
        store = filled_store(tmp_path / "store", requests, stats)
        (store.root / "notes.json").write_text("{}")
        (store.root / f".{store.path_for(requests[0]).name}.k9x2ab.tmp").write_text("{")
        CostModel().save(store.cost_model_path)
        assert list(store.cell_paths()) == sorted(store.path_for(r) for r in requests)


class TestCostModelPersistence:
    def test_round_trip(self, tmp_path, cells_and_stats):
        requests, _ = cells_and_stats
        model = CostModel()
        model.observe(requests[0].config, 10_000, 0.5)
        model.observe(requests[1].config, 10_000, 1.5)
        path = tmp_path / "cost_model.json"
        model.save(path)
        reloaded = CostModel()
        assert reloaded.load_from(path)
        assert reloaded.to_dict() == model.to_dict()
        assert reloaded.weight(requests[1].config) > reloaded.weight(
            requests[0].config
        )

    def test_memory_beats_disk_on_overlap(self, tmp_path, cells_and_stats):
        requests, _ = cells_and_stats
        stale = CostModel()
        stale.observe(requests[0].config, 10_000, 9.0)
        stale.save(tmp_path / "m.json")
        fresh = CostModel()
        fresh.observe(requests[0].config, 10_000, 1.0)
        fresh.load_from(tmp_path / "m.json")
        assert fresh.to_dict()["rates"][requests[0].config.name] == pytest.approx(
            1.0 / 10_000
        )

    @pytest.mark.parametrize(
        "content",
        ["", "{not json", json.dumps({"schema": 999, "rates": {}}),
         json.dumps({"schema": 1, "rates": "bogus"}), json.dumps([1, 2])],
    )
    def test_bad_files_are_cold_starts(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        model = CostModel()
        assert not model.load_from(path)
        assert model.to_dict()["rates"] == {}

    def test_missing_file_is_cold_start(self, tmp_path):
        assert not CostModel().load_from(tmp_path / "absent.json")
