"""Tests for the out-of-core streaming engine (section 4.4's space claim)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.streaming import StreamingNMEngine
from repro.core.trajpattern import TrajPatternMiner
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl
from tests.conftest import assert_no_engine_leftovers


@pytest.fixture
def stored(small_dataset, small_engine, tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset_jsonl(small_dataset, path)
    return path, small_engine


class TestValidation:
    def test_bad_chunk_size(self, stored):
        path, engine = stored
        with pytest.raises(ValueError):
            StreamingNMEngine(path, engine.grid, engine.config, chunk_size=0)

    def test_foreign_file_rejected(self, tmp_path, small_engine):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ValueError, match="not a repro trajectory"):
            StreamingNMEngine(path, small_engine.grid, small_engine.config)

    def test_empty_dataset_rejected_on_scan(self, tmp_path, small_engine):
        path = tmp_path / "empty.jsonl"
        save_dataset_jsonl(TrajectoryDataset([]), path)
        streaming = StreamingNMEngine(path, small_engine.grid, small_engine.config)
        with pytest.raises(ValueError, match="no trajectories"):
            streaming.nm(TrajectoryPattern((0,)))


class TestEquivalence:
    """Chunked == in-memory, for every chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
    def test_nm_equivalence(self, stored, chunk_size, rng):
        path, engine = stored
        streaming = StreamingNMEngine(
            path, engine.grid, engine.config, chunk_size=chunk_size
        )
        cells = engine.active_cells
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=n)))
            for n in (1, 2, 3)
        ]
        got = streaming.nm_many(patterns)
        expected = [engine.nm(p) for p in patterns]
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("chunk_size", [2, 7])
    def test_match_equivalence(self, stored, chunk_size, rng):
        path, engine = stored
        streaming = StreamingNMEngine(
            path, engine.grid, engine.config, chunk_size=chunk_size
        )
        cells = engine.active_cells
        pattern = TrajectoryPattern((cells[0], cells[1]))
        assert streaming.match(pattern) == pytest.approx(
            engine.match(pattern), rel=1e-9
        )

    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_singular_table_equivalence(self, stored, chunk_size):
        path, engine = stored
        streaming = StreamingNMEngine(
            path, engine.grid, engine.config, chunk_size=chunk_size
        )
        got = streaming.singular_nm_table()
        expected = engine.singular_nm_table()
        assert set(got) == set(expected)
        for cell in expected:
            assert got[cell] == pytest.approx(expected[cell], abs=1e-9)

    def test_chunk_instrumentation(self, stored):
        path, engine = stored
        streaming = StreamingNMEngine(path, engine.grid, engine.config, chunk_size=5)
        streaming.nm(TrajectoryPattern((engine.active_cells[0],)))
        # 12 trajectories in 5-sized chunks -> 3 chunks.
        assert streaming.n_chunks_scanned == 3

    def test_empty_batch(self, stored):
        path, engine = stored
        streaming = StreamingNMEngine(path, engine.grid, engine.config)
        assert len(streaming.nm_many([])) == 0


class TestVerifyTopK:
    def test_confirms_mined_ranking(self, stored):
        """The out-of-core re-score agrees with the miner's own ranking."""
        path, engine = stored
        mined = TrajPatternMiner(engine, k=6, max_length=3).mine()
        streaming = StreamingNMEngine(path, engine.grid, engine.config, chunk_size=4)
        verified = streaming.verify_top_k(mined.patterns, k=6)
        assert [p.cells for p, _ in verified] == [p.cells for p in mined.patterns]
        assert [v for _, v in verified] == pytest.approx(mined.nm_values, abs=1e-9)

    def test_k_validation(self, stored):
        path, engine = stored
        streaming = StreamingNMEngine(path, engine.grid, engine.config)
        with pytest.raises(ValueError):
            streaming.verify_top_k([TrajectoryPattern((0,))], k=0)


class TestTemporaryStore:
    """A JSONL input streams from a temporary store that never outlives the engine."""

    def _patterns(self, engine):
        return [TrajectoryPattern((c,)) for c in engine.active_cells[:3]]

    def test_removed_by_close(self, stored):
        path, engine = stored
        streaming = StreamingNMEngine(path, engine.grid, engine.config, chunk_size=5)
        assert Path(streaming.spill_path).exists()
        streaming.nm_many(self._patterns(engine))
        streaming.close()
        streaming.close()  # idempotent
        assert_no_engine_leftovers()
        with pytest.raises(RuntimeError, match="closed"):
            streaming.nm_many(self._patterns(engine))

    def test_removed_by_with_block(self, stored):
        path, engine = stored
        with StreamingNMEngine(path, engine.grid, engine.config) as streaming:
            values = streaming.nm_many(self._patterns(engine))
        assert np.array_equal(values, engine.nm_batch(self._patterns(engine)))
        assert_no_engine_leftovers()

    def test_removed_when_conversion_fails_mid_file(self, stored, tmp_path):
        path, engine = stored
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        broken = tmp_path / "broken.jsonl"
        middle = len(lines) // 2
        broken.write_text(
            "".join(lines[:middle] + ["{not json\n"] + lines[middle:]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"{broken}:{middle + 1}: not JSON"):
            StreamingNMEngine(broken, engine.grid, engine.config)
        assert_no_engine_leftovers()

    def test_store_input_needs_no_temporary_store(self, stored, tmp_path):
        from repro.core import index_cache
        from repro.storage import write_store

        path, engine = stored
        store = write_store(engine.dataset, tmp_path / "data.tjc")
        with StreamingNMEngine(store, engine.grid, engine.config) as from_store:
            assert from_store.spill_path is None
        with StreamingNMEngine(path, engine.grid, engine.config) as from_jsonl:
            # The lossless temporary store hashes like the dataset itself.
            assert from_jsonl.content_hash == from_store.content_hash
            assert from_jsonl.content_hash == index_cache.dataset_fingerprint(
                engine.dataset
            )
