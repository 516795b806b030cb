"""Out-of-core NM evaluation (the paper's section 4.4 space argument).

Section 4.4: "Although the input data set size N could be larger than that
of Q, it is not necessary to load the entire input data set at once since
we only need a portion of the data set at a time for computing the NM.
Thus the space complexity of our algorithm can be considered as O(kMG)."

:class:`StreamingNMEngine` realises that claim: it evaluates the NM and
match of pattern batches by streaming trajectories from a dataset file in
bounded-size chunks, building the in-memory probability index only for the
chunk in flight.  Because NM and match are *sums of per-trajectory terms*
(Eq. 4 summed over D), chunk results combine by plain addition -- the
evaluation is embarrassingly partitionable over trajectories.

Two file formats are accepted (sniffed, not suffix-matched):

* **JSONL** (:func:`repro.trajectory.io.save_dataset_jsonl`) -- parsed
  line by line, one chunk of trajectories resident at a time;
* **``.tjc`` columnar stores** (:mod:`repro.storage`) -- chunks become
  trajectory *spans* read straight from the column chunks (bounded
  ``pread``, no mmap growth), and with ``config.cache_dir`` set each
  span's index is cached under a :func:`~repro.core.index_cache.
  span_cache_key` -- keyed by the store's content hash and the span
  bounds, so re-scoring runs rebuild nothing and the cache warms span by
  span, incrementally, without ever fingerprinting (or holding) the whole
  dataset.

Intended use: verifying or re-scoring mined pattern sets against datasets
too large for one resident index (the miner itself wants the random access
of :class:`~repro.core.engine.NMEngine`; run it on a sample, then confirm
the final top-k out-of-core).  The test suite checks chunked results equal
the in-memory engine exactly.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import merge_batch_sums, merge_singular_tables
from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid
from repro.obs import logs, metrics, tracing
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

_log = logs.get_logger("streaming")


class StreamingNMEngine:
    """Chunked NM/match evaluation over a JSONL trajectory file.

    Parameters
    ----------
    path:
        A dataset file: JSONL written by
        :func:`repro.trajectory.io.save_dataset_jsonl`, or a ``.tjc``
        columnar store (detected by magic).
    grid, config:
        The same geometry/probability configuration an in-memory engine
        would use; results are identical by construction.
    chunk_size:
        Trajectories resident per chunk -- the memory knob.  Peak memory is
        one chunk's probability index instead of the whole dataset's.
    """

    def __init__(
        self,
        path: str | Path,
        grid: Grid,
        config: EngineConfig,
        chunk_size: int = 64,
    ) -> None:
        from repro.storage import is_store_path, open_store  # deferred: layering

        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.path = Path(path)
        self.grid = grid
        self.config = config
        self.chunk_size = chunk_size
        self.n_chunks_scanned = 0  # instrumentation
        self.span_cache_hits = 0  # store mode: spans served from the cache
        self.store_backed = is_store_path(self.path)
        if self.store_backed:
            # O(footer) open validates magic/version and pins the content
            # hash that names this store's span cache entries.
            with open_store(self.path) as store:
                self._store_hash = store.content_hash
                self._n_store_traj = store.n_trajectories
            return
        # Validate the header eagerly so misuse fails at construction.
        with self.path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline() or "null")
        if not isinstance(header, dict) or header.get("format") != "repro.trajectory":
            raise ValueError(f"{self.path}: not a repro trajectory JSONL file")

    # -- streaming machinery ---------------------------------------------------

    def _iter_chunks(self) -> Iterator[TrajectoryDataset]:
        """Yield the JSONL file as bounded TrajectoryDataset chunks.

        Rides :func:`repro.trajectory.io.iter_dataset_jsonl`, so parsing is
        line-by-line (one trajectory resident beyond the current batch) and
        malformed records fail with the usual ``path:line`` errors.
        """
        from repro.trajectory.io import iter_dataset_jsonl

        batch: list[UncertainTrajectory] = []
        stream = iter_dataset_jsonl(self.path)
        next(stream)  # header metadata
        for traj in stream:
            batch.append(traj)
            if len(batch) == self.chunk_size:
                yield TrajectoryDataset(batch)
                batch = []
        if batch:
            yield TrajectoryDataset(batch)

    def _store_chunk_engines(self) -> Iterator[NMEngine]:
        """Span-at-a-time engines over a ``.tjc`` store.

        Each span reads its rows through bounded ``pread`` (``mode="read"``
        -- the mapping never grows, so peak RSS is one span).  With
        ``config.cache_dir`` set the span's flat index is cached under a
        span key: store content hash + span bounds + grid/config, with
        span-local row indices -- built on first contact, loaded ever
        after, independent of every other span.
        """
        from repro.core import index_cache, kernels  # deferred: layering
        from repro.storage import open_store

        cache_dir = self.config.cache_dir
        kernel_tag = kernels.prob_kernel_tag(self.config)
        # Chunk engines stay in-process and never cache whole-chunk-dataset
        # keys themselves -- the span cache above is their cache.
        config = replace(self.config, jobs=1, cache_dir=None)
        with open_store(self.path) as store:
            # The store is re-opened per scan, so an atomic replace of the
            # file (same path, new contents -- a live ingest pipeline
            # republishing its report log does exactly this) is picked up
            # here: the pinned content hash must follow, or span cache keys
            # would keep naming the *old* contents' entries and silently
            # serve stale indexes over the new rows.
            if store.content_hash != self._store_hash:
                _log.info(
                    "store contents changed; refreshing span cache identity",
                    extra={
                        "path": str(self.path),
                        "old_hash": self._store_hash[:12],
                        "new_hash": store.content_hash[:12],
                    },
                )
                self._store_hash = store.content_hash
                self._n_store_traj = store.n_trajectories
            offsets = store.row_offsets
            for lo in range(0, store.n_trajectories, self.chunk_size):
                hi = min(lo + self.chunk_size, store.n_trajectories)
                span = store.span(lo, hi, mode="read")
                prebuilt, span_key = None, None
                if cache_dir is not None:
                    span_key = index_cache.span_cache_key(
                        self._store_hash,
                        lo,
                        hi,
                        self.grid,
                        self.config,
                        kernel_tag=kernel_tag,
                    )
                    prebuilt = index_cache.load_index(
                        cache_dir,
                        span_key,
                        n_rows=int(offsets[hi] - offsets[lo]),
                        n_cells=self.grid.n_cells,
                    )
                self.n_chunks_scanned += 1
                metrics.counter("streaming.chunks_scanned").inc()
                with tracing.span(
                    "streaming.span",
                    chunk=self.n_chunks_scanned,
                    traj_lo=lo,
                    traj_hi=hi,
                    cache_hit=prebuilt is not None,
                ):
                    engine = NMEngine(span, self.grid, config, prebuilt=prebuilt)
                if prebuilt is not None:
                    self.span_cache_hits += 1
                    metrics.counter("streaming.span_cache_hit").inc()
                elif span_key is not None:
                    index_cache.save_index(
                        cache_dir, span_key, *engine.index_arrays()
                    )
                yield engine

    def _per_chunk(self, fn) -> list:
        """``fn(engine)`` for every chunk engine, in file order (one pass)."""
        parts = [fn(engine) for engine in self._chunk_engines()]
        if not parts:
            raise ValueError(f"{self.path}: dataset contains no trajectories")
        return parts

    def _chunk_engines(self) -> Iterator[NMEngine]:
        if self.store_backed:
            yield from self._store_chunk_engines()
            return
        # Chunk engines are always in-process (one resident index is the
        # whole point); `jobs` is neutralised rather than spawning a pool
        # per chunk.  `cache_dir` is kept: each chunk gets its own
        # content-keyed cache file, so repeated re-scoring runs skip every
        # chunk's index build.
        config = (
            replace(self.config, jobs=1) if self.config.jobs != 1 else self.config
        )
        for chunk in self._iter_chunks():
            self.n_chunks_scanned += 1
            metrics.counter("streaming.chunks_scanned").inc()
            with tracing.span(
                "streaming.chunk",
                chunk=self.n_chunks_scanned,
                n_traj=len(chunk),
            ):
                engine = NMEngine(chunk, self.grid, config)
            _log.debug(
                "streaming chunk ready",
                extra={
                    "path": str(self.path),
                    "chunk": self.n_chunks_scanned,
                    "n_traj": len(chunk),
                    "n_entries": engine.n_index_entries,
                },
            )
            yield engine

    # -- evaluation -------------------------------------------------------------

    def nm_many(self, patterns: Sequence[TrajectoryPattern]) -> np.ndarray:
        """Dataset NM of each pattern, computed in one pass over the file.

        One chunk index is resident at a time; the whole pattern batch is
        scored against it with one :meth:`NMEngine.nm_batch` call before it
        is dropped, so the file is read exactly once per call regardless of
        the batch size.
        """
        if not patterns:
            return np.empty(0)
        return merge_batch_sums(self._per_chunk(lambda e: e.nm_batch(patterns)))

    def match_many(self, patterns: Sequence[TrajectoryPattern]) -> np.ndarray:
        """Dataset match of each pattern, one pass over the file."""
        if not patterns:
            return np.empty(0)
        return merge_batch_sums(self._per_chunk(lambda e: e.match_batch(patterns)))

    def nm(self, pattern: TrajectoryPattern) -> float:
        """Dataset NM of one pattern (prefer :meth:`nm_many` for batches)."""
        return float(self.nm_many([pattern])[0])

    def match(self, pattern: TrajectoryPattern) -> float:
        """Dataset match of one pattern."""
        return float(self.match_many([pattern])[0])

    def singular_nm_table(self) -> dict[int, float]:
        """NM of every active singular pattern, accumulated across chunks.

        Cells inactive in a chunk contribute that chunk's floor terms; the
        accumulation accounts for them so the result matches the in-memory
        engine exactly.
        """
        parts = self._per_chunk(lambda e: (e.singular_nm_table(), len(e.dataset)))
        tables, sizes = zip(*parts)
        return merge_singular_tables(
            tables, sizes, self.config.min_log_prob, sum(sizes)
        )

    def verify_top_k(
        self, patterns: Sequence[TrajectoryPattern], k: int
    ) -> list[tuple[TrajectoryPattern, float]]:
        """Re-score a mined pattern set out-of-core and return its top-k."""
        if k < 1:
            raise ValueError("k must be positive")
        values = self.nm_many(patterns)
        order = sorted(
            range(len(patterns)),
            key=lambda i: (-values[i], len(patterns[i]), patterns[i].cells),
        )
        return [(patterns[i], float(values[i])) for i in order[:k]]
