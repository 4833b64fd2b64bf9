"""The session worker pool and adaptive (cost-model) chunking."""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments.pool as pool_mod
from repro.experiments import BatchRunner, CostModel, SerialBackend, matrix_spec
from repro.experiments.pool import session_pool, shutdown_session_pools
from repro.harness.bench import bench_configs
from repro.pipeline.config import RexMode

INSTS = 1200


def family_configs():
    return {kind: config for kind, (_, config) in bench_configs().items()}


@pytest.fixture(autouse=True)
def _clean_session_pools():
    shutdown_session_pools()
    yield
    shutdown_session_pools()


class TestSessionPool:
    def test_session_pool_is_reused_across_runs(self):
        spec = matrix_spec(
            "scope", family_configs(), ["gcc"], INSTS, baseline="conventional"
        )
        serial = SerialBackend().run(spec.cells())
        first_runner = BatchRunner(jobs=2)
        first = first_runner.run(spec.cells())
        pool = pool_mod._session_pools.get(first_runner.workers)
        assert pool is not None
        second = BatchRunner(jobs=2).run(spec.cells())
        # Same long-lived pool object served both sweeps...
        assert pool_mod._session_pools.get(first_runner.workers) is pool
        # ...and results stay bit-identical to serial either way.
        assert [s.fingerprint() for s in first] == [s.fingerprint() for s in serial]
        assert [s.fingerprint() for s in second] == [s.fingerprint() for s in serial]

    def test_shutdown_leaves_no_process_behind(self):
        """A pooled sweep starts only the pool's workers: shutdown reaps
        them, and nothing (no resource tracker) outlives the sweep."""
        from multiprocessing import resource_tracker

        spec = matrix_spec(
            "scope2", family_configs(), ["gcc"], INSTS, baseline="conventional"
        )
        tracker_fd = resource_tracker._resource_tracker._fd
        runner = BatchRunner(jobs=2)
        runner.run(spec.cells())
        workers = list(pool_mod._session_pools[runner.workers]._processes.values())
        assert workers
        shutdown_session_pools()
        assert pool_mod._session_pools == {}
        assert not any(process.is_alive() for process in workers)
        assert resource_tracker._resource_tracker._fd == tracker_fd

    def test_shutdown_is_idempotent(self):
        session_pool(2)
        assert pool_mod._session_pools
        shutdown_session_pools()
        assert pool_mod._session_pools == {}
        shutdown_session_pools()

    def test_broken_pool_is_replaced(self):
        pool = session_pool(2)
        pool._broken = "simulated worker crash"
        replacement = session_pool(2)
        assert replacement is not pool
        assert list(replacement.map(int, ["7"])) == [7]



class TestCostModel:
    def test_perfect_configs_weigh_heavier_unmeasured(self):
        model = CostModel()
        configs = family_configs()
        perfect = dataclasses.replace(
            configs["conventional"], name="ideal", rex_mode=RexMode.PERFECT
        )
        assert model.weight(perfect) == CostModel.PERFECT_WEIGHT
        assert model.weight(configs["conventional"]) == 1.0

    def test_observations_shift_weights(self):
        model = CostModel()
        configs = family_configs()
        slow, fast = configs["ssq"], configs["conventional"]
        model.observe(slow, 1000, 1.0)  # 1 ms/inst
        model.observe(fast, 1000, 0.1)  # 0.1 ms/inst
        assert model.weight(slow) > model.weight(fast)
        assert model.weight(slow) / model.weight(fast) == pytest.approx(10.0)

    def test_bogus_observations_ignored(self):
        model = CostModel()
        config = family_configs()["nlq"]
        model.observe(config, 0, 1.0)
        model.observe(config, 1000, 0.0)
        assert model.weight(config) == 1.0


class TestAdaptiveChunking:
    def _spec(self):
        configs = family_configs()
        slow = dataclasses.replace(configs["conventional"], name="slow")
        return matrix_spec(
            "adaptive",
            {"slow": slow, "a": configs["conventional"], "b": configs["nlq"],
             "c": configs["ssq"]},
            ["gcc"],
            INSTS,
            baseline="a",
        )

    def test_split_point_follows_measured_cost(self):
        spec = self._spec()
        requests = spec.cells()
        model = CostModel()
        # Teach the model that "slow" costs as much as the other three
        # cells together: the balanced split should isolate it.
        model.observe(requests[0].config, INSTS, 3.0)
        for request in requests[1:]:
            model.observe(request.config, INSTS, 1.0)
        runner = BatchRunner(jobs=2, cost_model=model)
        chunks = runner._chunks(requests)
        assert sorted(i for _, indices in chunks for i in indices) == [0, 1, 2, 3]
        sizes = sorted(len(indices) for _, indices in chunks)
        assert sizes == [1, 3]
        lone = next(indices for _, indices in chunks if len(indices) == 1)
        assert requests[lone[0]].config.name == "slow"

    def test_costly_single_cell_chunk_does_not_stop_splitting(self):
        """Regression: when the costliest chunk holds one cell, splitting
        must move on to the next splittable chunk, not give up with idle
        workers."""
        configs = family_configs()
        heavy = dataclasses.replace(configs["conventional"], name="heavy")
        lone = matrix_spec("lone", {"baseline": heavy}, ["mcf"], INSTS)
        wide = matrix_spec(
            "wide",
            {"a": configs["conventional"], "b": configs["nlq"], "c": configs["ssq"]},
            ["gcc"],
            INSTS,
            baseline="a",
        )
        requests = lone.cells() + wide.cells()
        model = CostModel()
        model.observe(heavy, INSTS, 50.0)  # dominant, but unsplittable
        for request in wide.cells():
            model.observe(request.config, INSTS, 1.0)
        chunks = BatchRunner(jobs=4, cost_model=model)._chunks(requests)
        assert sorted(i for _, indices in chunks for i in indices) == [0, 1, 2, 3]
        assert len(chunks) == 4  # used to stop at 2

    def test_uniform_cost_splits_evenly(self):
        spec = self._spec()
        requests = spec.cells()
        runner = BatchRunner(jobs=2, cost_model=CostModel())
        # All four configs unmeasured and none PERFECT: cost degenerates to
        # cell count and the split is the historical halving.
        chunks = runner._chunks(requests)
        assert sorted(len(indices) for _, indices in chunks) == [2, 2]

    def test_results_identical_whatever_the_model_believes(self):
        spec = self._spec()
        requests = spec.cells()
        serial = SerialBackend().run(requests)
        skewed = CostModel()
        skewed.observe(requests[0].config, INSTS, 100.0)
        skewed.observe(requests[1].config, INSTS, 0.001)
        pooled = BatchRunner(jobs=2, cost_model=skewed).run(requests)
        assert [s.fingerprint() for s in pooled] == [s.fingerprint() for s in serial]

    def test_runner_learns_rates_from_real_runs(self):
        spec = self._spec()
        model = CostModel()
        runner = BatchRunner(jobs=1, cost_model=model)
        runner.run(spec.cells())
        assert model._rates  # serial path observed every cell
        pooled_model = CostModel()
        BatchRunner(jobs=2, cost_model=pooled_model).run(spec.cells())
        assert pooled_model._rates  # workers reported per-cell timings
