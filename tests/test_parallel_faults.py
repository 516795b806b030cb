"""Fault-injected worker crashes: the engine must fail loudly and leak nothing.

Every scenario kills (or errors) a shard worker at a specific point --
startup, mid-batch, while the parent collects the span indexes for the
cache -- and asserts the two invariants the fixes guarantee:

* the failure surfaces as :class:`WorkerCrashError` (pipe death) or a
  ``RuntimeError`` carrying the worker traceback (reported error), never a
  bare ``EOFError``/``BrokenPipeError``;
* no spill file and no worker process survives afterwards (the autouse
  fixture enforces this for every test).

Faults armed in the parent are inherited by forked workers, which is how a
test reaches code running inside a worker process.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine, WorkerCrashError
from repro.core.pattern import TrajectoryPattern
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import assert_no_engine_leftovers


@pytest.fixture(autouse=True)
def clean_state():
    faults.disarm()
    yield
    faults.disarm()
    assert_no_engine_leftovers()


def _dataset(n=8, length=10, seed=42) -> TrajectoryDataset:
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(n):
        start = rng.uniform(0.1, 0.4, 2)
        means = start + np.cumsum(rng.normal(0.02, 0.004, (length, 2)), axis=0)
        trajectories.append(UncertainTrajectory(means, 0.015, object_id=f"o{i}"))
    return TrajectoryDataset(trajectories)


@pytest.fixture(scope="module")
def scenario():
    dataset = _dataset()
    grid = dataset.make_grid(0.05)
    config = EngineConfig(delta=0.05, min_prob=1e-6)
    return dataset, grid, config


def _patterns(dataset, grid, config, n=6):
    cells = NMEngine(dataset, grid, config).active_cells
    return [TrajectoryPattern((c,)) for c in cells[:n]]


class TestCrashMidBatch:
    def test_worker_death_raises_worker_crash_and_closes(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op",
            "exit",
            match={"shard": 0, "op": "nm_batch"},
        )
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        try:
            with pytest.raises(WorkerCrashError, match="shard worker 0 died"):
                engine.nm_batch(patterns)
            # The crash closed the engine: no half-dead evaluations later.
            with pytest.raises(RuntimeError, match="closed"):
                engine.nm_batch(patterns)
            assert not os.path.exists(engine.spill_path)
            assert_no_engine_leftovers()
        finally:
            engine.close()  # idempotent no-op after the auto-close

    def test_sigkill_mid_batch_leaves_nothing_behind(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op", "sigkill", match={"shard": 1, "op": "nm_batch"}
        )
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        spill = engine.spill_path
        assert os.path.exists(spill)
        with pytest.raises(WorkerCrashError, match="shard worker 1 died"):
            engine.nm_batch(patterns)
        assert not os.path.exists(spill)
        assert_no_engine_leftovers()

    def test_worker_op_error_keeps_engine_usable(self, scenario):
        # A *reported* error (worker alive, op failed) must not tear the
        # engine down -- only pipe death is fatal.
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op",
            "raise",
            match={"shard": 0, "op": "nm_batch"},
        )
        with ParallelNMEngine(dataset, grid, config, jobs=2) as engine:
            with pytest.raises(RuntimeError, match="FaultInjected"):
                engine.nm_batch(patterns)
            # Fault was count=1: the next call goes through and agrees
            # with the serial engine.
            serial = NMEngine(dataset, grid, config)
            np.testing.assert_allclose(
                engine.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )

    def test_unmatched_fault_does_not_fire(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm("parallel.worker.op", "exit", match={"shard": 99})
        with ParallelNMEngine(dataset, grid, config, jobs=2) as engine:
            serial = NMEngine(dataset, grid, config)
            np.testing.assert_allclose(
                engine.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )


class TestCrashDuringStartup:
    def test_hard_crash_during_startup_cleans_shm(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "exit", match={"shard": 1})
        with pytest.raises(WorkerCrashError):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        assert_no_engine_leftovers()

    def test_reported_startup_failure_carries_traceback(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "raise", match={"shard": 0})
        with pytest.raises(RuntimeError, match="FaultInjected"):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        assert_no_engine_leftovers()

    def test_sigkill_during_startup_cleans_shm(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "sigkill", match={"shard": 0})
        with pytest.raises(WorkerCrashError):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        assert_no_engine_leftovers()


class TestCrashDuringHandoff:
    """A cold cache build: the parent collects every span's index arrays."""

    @pytest.mark.parametrize("action", ["exit", "sigkill"])
    def test_crash_during_index_collect(self, scenario, tmp_path, action):
        dataset, grid, config = scenario
        config = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        faults.arm(
            "parallel.worker.op",
            action,
            match={"shard": 1, "op": "index_arrays"},
        )
        with pytest.raises(WorkerCrashError, match="shard worker 1 died"):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        assert_no_engine_leftovers()
        assert list(tmp_path.glob("*.npz")) == []

    def test_parent_merge_failure_writes_no_cache(self, scenario, tmp_path):
        dataset, grid, config = scenario
        config = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        faults.arm("parallel.parent.merge", "raise")
        with pytest.raises(faults.FaultInjected):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        assert_no_engine_leftovers()
        # The cache write never happened: no file, and no torn temp file.
        assert list(tmp_path.glob("*.npz")) == []
        assert list(tmp_path.glob("*.tmp")) == []


class TestCloseSemantics:
    def test_close_is_idempotent_after_crash(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op", "exit", match={"shard": 0, "op": "nm_batch"}
        )
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        with pytest.raises(WorkerCrashError):
            engine.nm_batch(patterns)
        engine.close()
        engine.close()
        assert_no_engine_leftovers()
