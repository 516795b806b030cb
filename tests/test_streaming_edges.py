"""Chunk-boundary edge cases for the out-of-core streaming engine.

The chunking loop has three easy-to-regress edges: a file whose size is an
exact multiple of ``chunk_size`` (the final ``if batch:`` must not yield a
phantom empty chunk), a chunk size equal to or larger than the dataset
(one chunk, no second pass), and ``chunk_size=1`` (maximum fragmentation).
In every geometry the result must equal the monolithic in-memory engine,
and with a cache directory configured each chunk's content-keyed index
file must round-trip (second scan warm) without perturbing the values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.streaming import StreamingNMEngine
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl
from repro.trajectory.trajectory import UncertainTrajectory

N_TRAJECTORIES = 8


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    rng = np.random.default_rng(31)
    trajectories = []
    for i in range(N_TRAJECTORIES):
        start = rng.uniform(0.1, 0.5, 2)
        means = start + np.cumsum(rng.normal(0.015, 0.005, (12, 2)), axis=0)
        trajectories.append(UncertainTrajectory(means, 0.02, object_id=f"o{i}"))
    dataset = TrajectoryDataset(trajectories)
    grid = dataset.make_grid(0.05)
    config = EngineConfig(delta=0.05, min_prob=1e-6)
    path = tmp_path_factory.mktemp("stream") / "data.jsonl"
    save_dataset_jsonl(dataset, path)
    engine = NMEngine(dataset, grid, config)
    return path, grid, config, engine


def _patterns(engine, n=5):
    cells = engine.active_cells
    out = [TrajectoryPattern((int(c),)) for c in cells[:2]]
    out.append(TrajectoryPattern((int(cells[0]), int(cells[1]))))
    out.append(TrajectoryPattern((int(cells[1]), int(cells[2]), int(cells[0]))))
    return out[:n]


class TestChunkCount:
    def test_exact_multiple_has_no_phantom_final_chunk(self, scenario):
        # 8 trajectories at chunk_size=4: exactly 2 chunks, and the final
        # empty batch after the last full one must not be scanned.
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=4)
        streaming.nm_many(_patterns(engine))
        assert streaming.n_chunks_scanned == 2

    def test_chunk_size_equal_to_dataset(self, scenario):
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=N_TRAJECTORIES)
        streaming.nm_many(_patterns(engine))
        assert streaming.n_chunks_scanned == 1

    def test_chunk_size_larger_than_dataset(self, scenario):
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=10_000)
        streaming.nm_many(_patterns(engine))
        assert streaming.n_chunks_scanned == 1

    def test_chunk_size_one(self, scenario):
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=1)
        streaming.nm_many(_patterns(engine))
        assert streaming.n_chunks_scanned == N_TRAJECTORIES

    def test_ragged_final_chunk(self, scenario):
        # 8 = 3 + 3 + 2: the short tail is a real chunk.
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=3)
        streaming.nm_many(_patterns(engine))
        assert streaming.n_chunks_scanned == 3


class TestBoundaryEquivalence:
    """Every chunk geometry sums to the monolithic engine's answer."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 4, N_TRAJECTORIES, 10_000])
    def test_nm_equals_monolithic(self, scenario, chunk_size):
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        streaming = StreamingNMEngine(path, grid, config, chunk_size=chunk_size)
        np.testing.assert_allclose(
            streaming.nm_many(patterns), engine.nm_batch(patterns), rtol=1e-12
        )

    @pytest.mark.parametrize("chunk_size", [1, 4, N_TRAJECTORIES])
    def test_match_equals_monolithic(self, scenario, chunk_size):
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        streaming = StreamingNMEngine(path, grid, config, chunk_size=chunk_size)
        np.testing.assert_allclose(
            streaming.match_batch(patterns), engine.match_batch(patterns), rtol=1e-12
        )

    def test_singular_table_at_exact_multiple(self, scenario):
        path, grid, config, engine = scenario
        streaming = StreamingNMEngine(path, grid, config, chunk_size=4)
        got = streaming.singular_nm_table()
        expected = engine.singular_nm_table()
        assert set(got) == set(expected)
        for cell, value in expected.items():
            assert got[cell] == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestPerChunkCaching:
    def test_chunk_caches_round_trip(self, scenario, tmp_path):
        # With cache_dir set, each chunk persists its own content-keyed
        # index file; a second scan must hit every one of them and the
        # values must stay identical to both the cold scan and the
        # monolithic engine sharing the same cache directory.
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        cached = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        cold = StreamingNMEngine(path, grid, cached, chunk_size=3)
        cold_values = cold.nm_many(patterns)
        files = sorted(tmp_path.glob("index-*.npz"))
        assert len(files) == 3  # one per chunk
        assert list(tmp_path.glob("*.tmp")) == []
        mtimes = [f.stat().st_mtime_ns for f in files]

        warm = StreamingNMEngine(path, grid, cached, chunk_size=3)
        warm_values = warm.nm_many(patterns)
        assert sorted(tmp_path.glob("index-*.npz")) == files
        # A rebuild would overwrite in place: unchanged mtimes prove every
        # chunk loaded from disk instead.
        assert [f.stat().st_mtime_ns for f in files] == mtimes
        np.testing.assert_array_equal(warm_values, cold_values)
        np.testing.assert_allclose(
            warm_values, engine.nm_batch(patterns), rtol=1e-12
        )

    def test_monolithic_and_streaming_caches_coexist(self, scenario, tmp_path):
        # The full-dataset engine and the chunk engines have different
        # content fingerprints: they share a directory without colliding.
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        cached = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        streaming = StreamingNMEngine(path, grid, cached, chunk_size=4)
        streaming_values = streaming.nm_many(patterns)
        dataset = engine.dataset
        full = NMEngine(dataset, grid, cached)
        assert not full.index_cache_hit  # distinct key from the chunks
        assert len(list(tmp_path.glob("index-*.npz"))) == 3  # 2 chunks + full
        np.testing.assert_allclose(
            streaming_values, full.nm_batch(patterns), rtol=1e-12
        )
