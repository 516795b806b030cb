"""Out-of-core NM evaluation (the paper's section 4.4 space argument).

Section 4.4: "Although the input data set size N could be larger than that
of Q, it is not necessary to load the entire input data set at once since
we only need a portion of the data set at a time for computing the NM.
Thus the space complexity of our algorithm can be considered as O(kMG)."

:class:`StreamingNMEngine` realises that claim.  It is the third span
executor next to the fork and TCP pools of :mod:`repro.core.parallel`:
it walks fixed ``chunk_size``-trajectory spans of a ``.tjc`` columnar
store (:mod:`repro.storage`) in order, in-process, building the in-memory
probability index only for the span in flight, and runs the shared span
op table (:func:`~repro.core.parallel.run_span_op`) on it.  Because NM
and match are *sums of per-trajectory terms* (Eq. 4 summed over D), span
results combine by the same exact merges every executor uses
(:class:`~repro.core.parallel.SpanEvaluator`).

Spans are read straight from the column chunks (bounded ``pread``, no mmap
growth).  With ``config.cache_dir`` set each span's index is cached under
a :func:`~repro.core.index_cache.span_cache_key` -- keyed by the store's
content hash and the span bounds, so re-scoring runs rebuild nothing and
the cache warms span by span without ever fingerprinting (or holding) the
whole dataset.

A JSONL input (:func:`repro.trajectory.io.save_dataset_jsonl`) is
converted once, at construction, to a temporary lossless store with
:func:`repro.storage.convert_jsonl_to_store` (streaming, bounded memory;
float64 positions, no compression).  It is named ``repro-spill-*`` in
``tempfile``'s default directory, its ``content_hash`` equals
:func:`repro.core.index_cache.dataset_fingerprint` of the same data, and
:meth:`StreamingNMEngine.close` -- also the context-manager exit, garbage
collection and interpreter exit -- removes it.

Intended use: verifying or re-scoring mined pattern sets against datasets
too large for one resident index (the miner itself wants the random access
of :class:`~repro.core.engine.NMEngine`; run it on a sample, then confirm
the final top-k out-of-core).  The test suite checks chunked results equal
the in-memory engine exactly.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import SPILL_PREFIX, Span, SpanEvaluator, run_span_op
from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid
from repro.obs import logs, metrics, tracing

_log = logs.get_logger("streaming")


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class StreamingNMEngine(SpanEvaluator):
    """Span-at-a-time NM/match evaluation over a trajectory file.

    Parameters
    ----------
    path:
        A ``.tjc`` columnar store (detected by magic), or JSONL written by
        :func:`repro.trajectory.io.save_dataset_jsonl` (converted once to a
        temporary store).
    grid, config:
        The same geometry/probability configuration an in-memory engine
        would use; results are identical by construction.
    chunk_size:
        Trajectories resident per span -- the memory knob.  Peak memory is
        one span's probability index instead of the whole dataset's.

    For JSONL input the instance owns a temporary store; call
    :meth:`close` (or use it as a context manager) to remove it.
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
        self.span_cache_hits = 0  # spans served from the index cache
        #: The temporary store a JSONL input was converted to (else None).
        self.spill_path: str | None = None
        self._finalizer: weakref.finalize | None = None
        self._store_path = self.path if is_store_path(self.path) else self._convert()
        # O(footer) open validates magic/version and pins the content hash
        # that names this store's span cache entries.
        with open_store(self._store_path) as store:
            self.content_hash = store.content_hash

    def _convert(self) -> Path:
        """Convert the JSONL input to a temporary store; return its path."""
        from repro.storage import convert_jsonl_to_store  # deferred: layering

        fd, path = tempfile.mkstemp(prefix=SPILL_PREFIX, suffix=".tjc")
        os.close(fd)
        self.spill_path = path
        self._finalizer = weakref.finalize(self, _remove, path)
        try:
            convert_jsonl_to_store(self.path, path)
        except BaseException:
            self.close()
            raise
        return Path(path)

    # -- the span executor -------------------------------------------------------

    def _chunk_bounds(self, n_trajectories: int) -> list[Span]:
        return [
            (lo, min(lo + self.chunk_size, n_trajectories))
            for lo in range(0, n_trajectories, self.chunk_size)
        ]

    def _open_store(self):
        from repro.storage import open_store  # deferred: layering

        if self._finalizer is not None and not self._finalizer.alive:
            raise RuntimeError("StreamingNMEngine is closed")
        return open_store(self._store_path)

    def _span_bounds(self) -> list[Span]:
        with self._open_store() as store:
            return self._chunk_bounds(store.n_trajectories)

    def _run_spans(
        self, op: str, payload: Any = None, spans: Sequence[Span] | None = None
    ) -> list[tuple[Span, Any]]:
        """Build one span engine at a time, in order, and run ``op`` on it.

        Each span reads its rows through bounded ``pread`` (``mode="read"``
        -- the mapping never grows, so peak RSS is one span).  With
        ``config.cache_dir`` set the span's flat index is cached under a
        span key: store content hash + span bounds + grid/config, with
        span-local row indices -- built on first contact, loaded ever
        after, independent of every other span.
        """
        from repro.core import index_cache, kernels  # deferred: layering

        cache_dir = self.config.cache_dir
        kernel_tag = kernels.prob_kernel_tag(self.config)
        # Span engines stay in-process and never cache whole-span-dataset
        # keys themselves -- the span cache above is their cache.
        config = replace(self.config, jobs=1, cache_dir=None)
        results: list[tuple[Span, Any]] = []
        with self._open_store() as store:
            # The store is re-opened per scan, so an atomic replace of the
            # file (same path, new contents -- a live ingest pipeline
            # republishing its report log does exactly this) is picked up
            # here: the pinned content hash must follow, or span cache keys
            # would keep naming the *old* contents' entries and silently
            # serve stale indexes over the new rows.
            if store.content_hash != self.content_hash:
                _log.info(
                    "store contents changed; refreshing span cache identity",
                    extra={
                        "path": str(self.path),
                        "old_hash": self.content_hash[:12],
                        "new_hash": store.content_hash[:12],
                    },
                )
                self.content_hash = store.content_hash
            offsets = store.row_offsets
            if spans is None:
                spans = self._chunk_bounds(store.n_trajectories)
            for lo, hi in spans:
                span = store.span(lo, hi, mode="read")
                prebuilt, span_key = None, None
                if cache_dir is not None:
                    span_key = index_cache.span_cache_key(
                        self.content_hash,
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
                results.append(((lo, hi), run_span_op(engine, op, payload)))
        if not results:
            raise ValueError(f"{self.path}: dataset contains no trajectories")
        return results

    # -- evaluation -------------------------------------------------------------

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

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Remove the temporary store of a JSONL input.  Idempotent."""
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "StreamingNMEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
