"""Sharded evaluation over trajectory spans: one coordinator, any pools.

NM and match are *sums of per-trajectory terms* (Eq. 4 summed over the
dataset): per trajectory a window maximum, then one dataset sum.  Any
partition of the dataset along the trajectory axis therefore evaluates
independently, and the partition results combine by plain addition -- an
**exact reduction**, not an approximation.  This module writes that idea
down once for every *span executor*:

* :data:`SPAN_OPS` / :func:`run_span_op` -- the one op table mapping an
  op name to a call on a span's :class:`~repro.core.engine.NMEngine`;
  the wire form of each op is one entry of
  :data:`repro.dist.wire.SPAN_OP_CODECS`;
* the exact merges, and :class:`SpanEvaluator`, the one evaluation
  surface (``nm_batch``, ``match_batch``, the singular tables,
  ``extend_right_tables_many``, per-trajectory arrays, ``best_window``,
  gap-pattern NM) built on a single primitive: run an op on spans, get
  the results back in global span order.

Three executors provide that primitive: fork-worker pools and TCP pools,
both driven by :class:`ParallelNMEngine` below, and the in-process
out-of-core streamer (:class:`repro.core.streaming.StreamingNMEngine`).
Here, :func:`shard_dataset` splits the dataset into contiguous
trajectory spans balanced by snapshot count, and each span is owned by
one long-lived worker that builds (or adopts) the span's sparse index
once and then serves ops over it -- the sharded index build runs in all
workers concurrently, which is where the multi-core construction speedup
comes from.  The miners and the wildcard DP run on it unchanged.

Pools
-----
Spans are dealt round-robin over a list of pools:

* ``"local"`` -- :class:`LocalPool`, fork workers on this machine, one per
  span;
* ``"host:port"`` -- :class:`repro.dist.coordinator.RemotePool`, a ``repro
  worker`` process reached over TCP.  It is imported only when such a
  pool is named, so ``repro.core`` never imports ``repro.dist`` at module
  import.

Data path
---------
Every worker opens a ``(path, traj_lo, traj_hi)`` span of a ``.tjc``
columnar store (:mod:`repro.storage`) and memory-maps it read-only:
dataset arrays never travel, and all local workers share one page cache.
A store-backed dataset is used in place.  An in-memory dataset is first
spilled to a temporary ``.tjc`` (named ``repro-spill-*`` in ``tempfile``'s
default directory) with the writer's defaults -- float64 positions, no
compression, so lossless -- and the store's ``content_hash`` equals
:func:`repro.core.index_cache.dataset_fingerprint`, so index-cache keys
are unchanged.  :meth:`ParallelNMEngine.close` removes the spill, also
after a crash.  Remote pools open their own copy of the store, so they
need a dataset that is already store-backed.

Index cache
-----------
While every pool is local, ``config.cache_dir`` is served by the parent:
on a hit it loads the cached flat arrays and hands each span its rows, so
the workers skip the probability enumeration; after a cold build it
collects every span's index arrays over the pipes and persists the merged
full-dataset arrays -- byte-identical to what a serial engine would
write, so serial and parallel runs share one cache file in either
direction.  With a remote pool the cache is skipped.

Failures
--------
A pool whose worker dies, whose connection drops or whose op overruns its
deadline is retired: its spans re-open on the surviving pools and the op
re-runs for just those spans.  Every merge is one flat fold over per-span
results in global span order, so *which pool* computed a span cannot
change a bit of the result.  When no pool survives, the engine closes
itself and raises :class:`WorkerCrashError`.  A worker-reported error
(the worker is alive, the op failed) raises ``RuntimeError`` and leaves
the engine usable.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import tempfile
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import index_cache, kernels
from repro.core.engine import EngineConfig, ExtensionTables, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid
from repro.obs import logs, metrics, tracing
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset

#: Name prefix of the temporary ``.tjc`` an in-memory dataset spills to
#: (the leak checks in the tests glob ``tempfile.gettempdir()`` for it).
SPILL_PREFIX = "repro-spill-"

#: Default per-op deadline.  Generous -- an op covers a whole span batch
#: -- but finite, so a hung pool becomes a failover instead of a hang.
DEFAULT_OP_TIMEOUT_S = 300.0
DEFAULT_CONNECT_TIMEOUT_S = 10.0

Span = tuple[int, int]

_log = logs.get_logger("parallel")


class WorkerCrashError(RuntimeError):
    """No pool is left to run a span: every pool crashed or timed out.

    Raised instead of a bare ``EOFError``/``BrokenPipeError`` once the last
    pool has failed.  By the time the caller sees it the engine has torn
    itself down: remaining workers are stopped, the spill file is removed
    and the engine is closed -- a span nobody can compute means every
    subsequent reduction would be silently wrong, so the only safe state is
    "loudly unusable".
    """


class PoolFailure(Exception):
    """Internal: one pool is dead (connection loss, crash, op timeout)."""

    def __init__(self, pool, cause: str) -> None:
        super().__init__(f"pool {pool.name!r} failed: {cause}")
        self.pool = pool
        self.cause = cause


def parse_pool_spec(spec: str) -> tuple[str, tuple[str, int] | None]:
    """Parse one pool spec: ``"local"`` or ``"host:port"``."""
    if spec == "local":
        return "local", None
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"pool spec {spec!r} must be 'local' or 'host:port'")
    try:
        return "remote", (host, int(port))
    except ValueError as exc:
        raise ValueError(f"pool spec {spec!r}: bad port") from exc


# -- sharding ----------------------------------------------------------------------


def shard_dataset(dataset: TrajectoryDataset, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous trajectory spans ``[lo, hi)`` balanced by snapshot count.

    Degenerate inputs shrink the plan instead of producing unusable spans:
    ``n_shards`` is capped at the trajectory count (no shard is ever empty
    -- the engine refuses empty datasets), and a span that would hold only
    zero-length trajectories is merged into its neighbour, so every
    returned span contains at least one snapshot whenever the dataset has
    any.  A dataset of *only* empty trajectories collapses to the single
    span ``[(0, n)]``.  The result may therefore have fewer than
    ``n_shards`` entries.  Spans stay contiguous and ordered, so
    concatenating per-shard per-trajectory results reproduces dataset
    order.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot shard an empty dataset")
    n_shards = max(1, min(n_shards, n))
    cum = np.cumsum(dataset.lengths())
    total = int(cum[-1])
    if total == 0:
        return [(0, n)]
    bounds = [0]
    for s in range(1, n_shards):
        cut = int(np.searchsorted(cum, total * s / n_shards))
        cut = max(cut, bounds[-1] + 1)  # at least one trajectory per shard
        cut = min(cut, n - (n_shards - s))  # leave one for each later shard
        bounds.append(cut)
    bounds.append(n)
    spans = [(bounds[i], bounds[i + 1]) for i in range(n_shards)]

    def _snapshots(lo: int, hi: int) -> int:
        return int(cum[hi - 1] - (cum[lo - 1] if lo else 0))

    merged: list[tuple[int, int]] = []
    carry_lo: int | None = None  # leading all-empty spans extend the next one
    for lo, hi in spans:
        start = lo if carry_lo is None else carry_lo
        if _snapshots(lo, hi) == 0:
            if merged:
                merged[-1] = (merged[-1][0], hi)
            else:
                carry_lo = start
            continue
        merged.append((start, hi))
        carry_lo = None
    return merged


def _skew(values: Sequence[float]) -> float:
    """Imbalance ratio ``max / mean`` of per-shard quantities.

    ``1.0`` is perfectly balanced; shards are balanced by *snapshot count*,
    so skewed cell density shows up here as index-entry (and therefore
    work) skew even though the spans look fair.
    """
    if not len(values):
        return 1.0
    mean = sum(values) / len(values)
    return float(max(values) / mean) if mean > 0 else 1.0


# -- exact merges -------------------------------------------------------------------
#
# NM and match are sums of per-trajectory terms, so per-span results merge
# by addition.  These module-level functions are the *only* merge
# implementations, called from SpanEvaluator for every executor, which is
# what makes a remote pool bit-identical to a local one at the same span
# partition.
#
# Determinism contract: every function folds its inputs **in the order
# given**, and callers pass per-span results in global span order
# (ascending ``lo``).  Floating-point addition is order-sensitive, so a
# coordinator must always perform one flat merge over per-span results --
# never merge partial merges -- and then *which process computed a span*
# (fork worker, remote pool, or a survivor after a re-dispatch) cannot
# change a single bit of the reduction.


def merge_batch_sums(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise left-fold sum of per-span ``nm_batch``/``match_batch`` rows.

    ``parts`` must be ordered by span.  The fold is a plain sequential
    ``out += part`` so the reduction order is a pure function of the span
    partition, independent of arrival order or worker placement.
    """
    arrays = [np.asarray(p) for p in parts]
    out = arrays[0].copy()
    for part in arrays[1:]:
        out += part
    return out


def merge_per_trajectory(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-span per-trajectory arrays back into dataset order."""
    return np.concatenate([np.asarray(p) for p in parts])


def merge_scalar_sums(parts: Sequence[float]) -> float:
    """Left-fold sum of per-span scalar totals (gap-pattern NM)."""
    total = 0.0
    for part in parts:
        total += float(part)
    return total


def merge_singular_tables(
    tables: Sequence[dict[int, float]],
    span_sizes: Sequence[int],
    floor: float,
    n_total: int,
) -> dict[int, float]:
    """Merge per-span singular tables with floor completion.

    A span where a cell is inactive contributes the floor once per span
    trajectory.
    ``floor`` is ``min_log_prob`` for NM tables and ``exp(min_log_prob)``
    for match tables; ``tables`` and ``span_sizes`` must be in span order.
    """
    totals: dict[int, float] = {}
    counted: dict[int, int] = {}
    for table, n_span in zip(tables, span_sizes):
        for cell, value in table.items():
            totals[cell] = totals.get(cell, 0.0) + value
            counted[cell] = counted.get(cell, 0) + n_span
    return {
        cell: total + floor * (n_total - counted[cell])
        for cell, total in totals.items()
    }


def merge_extension_tables(
    span_tables: Sequence[ExtensionTables],
) -> tuple[dict[int, float], dict[int, float]]:
    """Merge one prefix's per-span extension tables into full-dataset ones.

    Each span reports its extension tables *plus* the base totals an
    inactive cell would score there; a cell missing from a span's table
    contributes that span's base -- making the merged table exactly the
    full-dataset one.  ``span_tables`` must be in span order.
    """
    nm_merged: dict[int, float] = {}
    match_merged: dict[int, float] = {}
    active: set[int] = set()
    for t in span_tables:
        active.update(t.nm_by_cell)
    for cell in active:
        nm_merged[cell] = sum(
            t.nm_by_cell.get(cell, t.nm_base_total) for t in span_tables
        )
        match_merged[cell] = sum(
            t.match_by_cell.get(cell, t.match_base_total) for t in span_tables
        )
    return nm_merged, match_merged


# -- the span op table ----------------------------------------------------------------
#
# One op name -> one NMEngine call, for every span executor: the fork
# worker loop below, the TCP worker session (repro.dist.worker) and the
# in-process streamer (repro.core.streaming).  Payloads are plain data --
# cell tuples, a span-local trajectory index, a GapPattern -- so they
# pickle over a pipe and have a wire codec (repro.dist.wire.SPAN_OP_CODECS).
# Adding a span op means one entry here and one codec entry there.


def _patterns(cells_list) -> list[TrajectoryPattern]:
    return [TrajectoryPattern(cells) for cells in cells_list]


def _gap_nm(engine: NMEngine, pattern) -> float:
    from repro.core.wildcards import nm_gap_pattern  # deferred: avoids cycles

    return float(nm_gap_pattern(engine, pattern))


def _obs_snapshot(engine: NMEngine, _payload=None) -> dict:
    return {
        "n_traj": len(engine.dataset),
        "n_entries": int(engine.n_index_entries),
        "n_evaluations": int(engine.n_evaluations),
        "n_batches": int(engine.n_batches),
        "backend": engine.backend_name,
        "metrics": metrics.get_registry().snapshot(),
    }


SPAN_OPS: dict[str, Callable[[NMEngine, Any], Any]] = {
    "nm_batch": lambda engine, cells_list: engine.nm_batch(_patterns(cells_list)),
    "match_batch": lambda engine, cells_list: engine.match_batch(_patterns(cells_list)),
    "nm_per_traj": lambda engine, cells: engine.nm_per_trajectory(
        TrajectoryPattern(cells)
    ),
    "match_per_traj": lambda engine, cells: engine.match_per_trajectory(
        TrajectoryPattern(cells)
    ),
    "singular_nm": lambda engine, _: engine.singular_nm_table(),
    "singular_match": lambda engine, _: engine.singular_match_table(),
    "ext_tables": lambda engine, cells_list: engine.extension_tables_many(
        _patterns(cells_list)
    ),
    "gap_nm": _gap_nm,
    "best_window": lambda engine, cells_traj: engine.best_window(
        TrajectoryPattern(cells_traj[0]), cells_traj[1]
    ),
    "stats": lambda engine, _: (int(engine.n_evaluations), int(engine.n_batches)),
    "obs_snapshot": _obs_snapshot,
    "index_arrays": lambda engine, _: engine.index_arrays(),
}


def run_span_op(engine: NMEngine, op: str, payload: Any = None) -> Any:
    """Run one span op against the engine of one trajectory span."""
    try:
        fn = SPAN_OPS[op]
    except KeyError:
        raise ValueError(f"unknown span op {op!r}") from None
    return fn(engine, payload)


def span_meta(engine: NMEngine) -> dict:
    """What a coordinator learns about a span when it is opened."""
    return {
        "n_traj": len(engine.dataset),
        "n_entries": int(engine.n_index_entries),
        "active_cells": [int(c) for c in engine.active_cells],
        "backend": engine.backend_name,
    }


# -- the evaluation surface -----------------------------------------------------------


class SpanEvaluator:
    """Dataset answers from per-span results, for every span executor.

    Subclasses supply one primitive, :meth:`_run_spans`: run a span op
    (see :data:`SPAN_OPS`) on trajectory spans and return ``(span,
    result)`` pairs in global span order.  :class:`ParallelNMEngine`
    dispatches to pools; :class:`~repro.core.streaming.StreamingNMEngine`
    walks its spans in-process.  Everything here is written once on top of
    that primitive and the exact merges above, so every executor folds the
    same per-span results in the same order.  Spans are dataset-relative
    ``[lo, hi)`` trajectory ranges.
    """

    config: EngineConfig

    def _span_bounds(self) -> list[Span]:
        """The executor's span partition of the dataset, in order."""
        raise NotImplementedError

    def _run_spans(
        self, op: str, payload: Any = None, spans: Sequence[Span] | None = None
    ) -> list[tuple[Span, Any]]:
        """Run ``op`` on ``spans`` (default: all); results in span order."""
        raise NotImplementedError

    def _merged(self, op: str, payload: Any = None) -> list:
        """Run ``op`` on every span; per-span results in global span order."""
        return [result for _span, result in self._run_spans(op, payload)]

    # -- batched measures --------------------------------------------------------

    def nm_batch(self, patterns: Sequence[TrajectoryPattern]) -> np.ndarray:
        """``NM(P)`` of a whole candidate batch: sum of per-span NM sums."""
        cells_list = [p.cells for p in patterns]
        if not cells_list:
            return np.empty(0)
        return merge_batch_sums(self._merged("nm_batch", cells_list))

    def match_batch(self, patterns: Sequence[TrajectoryPattern]) -> np.ndarray:
        """Dataset match of a whole candidate batch, in order."""
        cells_list = [p.cells for p in patterns]
        if not cells_list:
            return np.empty(0)
        return merge_batch_sums(self._merged("match_batch", cells_list))

    def nm_many(self, patterns: Sequence[TrajectoryPattern]) -> np.ndarray:
        """NM of several patterns, in order (alias of :meth:`nm_batch`)."""
        return self.nm_batch(patterns)

    def nm(self, pattern: TrajectoryPattern) -> float:
        """``NM(P)`` over the dataset."""
        return float(self.nm_batch([pattern])[0])

    def match(self, pattern: TrajectoryPattern) -> float:
        """Dataset match of ``pattern``."""
        return float(self.match_batch([pattern])[0])

    def nm_per_trajectory(self, pattern: TrajectoryPattern) -> np.ndarray:
        """Eq. 4 per trajectory; span arrays concatenate in dataset order."""
        return merge_per_trajectory(self._merged("nm_per_traj", pattern.cells))

    def match_per_trajectory(self, pattern: TrajectoryPattern) -> np.ndarray:
        """Un-normalised match per trajectory, in dataset order."""
        return merge_per_trajectory(self._merged("match_per_traj", pattern.cells))

    def best_window(
        self, pattern: TrajectoryPattern, traj_index: int
    ) -> tuple[int, float] | None:
        """Best (start, NM) window in one trajectory (routed to its span)."""
        for lo, hi in self._span_bounds():
            if lo <= traj_index < hi:
                payload = (pattern.cells, traj_index - lo)
                [(_span, result)] = self._run_spans("best_window", payload, [(lo, hi)])
                return result
        raise IndexError(f"trajectory index {traj_index} out of range")

    # -- singular tables -----------------------------------------------------------

    def _singular_table(self, op: str, floor: float) -> dict[int, float]:
        parts = self._run_spans(op)
        sizes = [hi - lo for (lo, hi), _table in parts]
        return merge_singular_tables(
            [table for _span, table in parts], sizes, floor, sum(sizes)
        )

    def singular_nm_table(self) -> dict[int, float]:
        """NM of every active singular pattern (exact span reduction).

        A span where a cell is inactive contributes the floor once per span
        trajectory, so the result equals the single-engine table.
        """
        return self._singular_table("singular_nm", self.config.min_log_prob)

    def singular_match_table(self) -> dict[int, float]:
        """Match of every active singular pattern (exact span reduction)."""
        return self._singular_table(
            "singular_match", float(np.exp(self.config.min_log_prob))
        )

    # -- extension tables ----------------------------------------------------------

    def extend_right_tables(
        self, pattern: TrajectoryPattern
    ) -> tuple[dict[int, float], dict[int, float]]:
        """NM and match of ``pattern + (c,)`` for every active cell ``c``."""
        return self.extend_right_tables_many([pattern])[0]

    def extend_right_tables_many(
        self, patterns: Sequence[TrajectoryPattern]
    ) -> list[tuple[dict[int, float], dict[int, float]]]:
        """Span-reduced :meth:`NMEngine.extend_right_tables_many`.

        Per prefix, each span reports its extension tables *plus* the base
        totals an inactive cell would score there; a cell missing from a
        span's table contributes that span's base -- making the merged
        table exactly the full-dataset one.
        """
        cells_list = [p.cells for p in patterns]
        if not cells_list:
            return []
        per_span: list[list[ExtensionTables]] = self._merged("ext_tables", cells_list)
        return [
            merge_extension_tables([tables[i] for tables in per_span])
            for i in range(len(cells_list))
        ]

    # -- gap patterns ------------------------------------------------------------

    def nm_gap_pattern_total(self, pattern) -> float:
        """Dataset NM of a :class:`~repro.core.wildcards.GapPattern`.

        Each span runs the alignment DP; per-trajectory bests sum exactly.
        :func:`repro.core.wildcards.nm_gap_pattern` dispatches here
        automatically.
        """
        return merge_scalar_sums(self._merged("gap_nm", pattern))


# -- the worker process ---------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerInit:
    """Everything a span worker needs to build its engine.

    ``store`` is a ``(path, traj_lo, traj_hi)`` span of a ``.tjc`` store;
    the worker memory-maps the same file read-only, so no dataset bytes are
    copied anywhere.  ``index`` holds the span's rows of a cache-loaded
    index, re-based to the span (``None``: build the index).
    """

    grid: Grid
    config: EngineConfig
    store: tuple[str, int, int]
    index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    shard: int = 0  # shard ordinal, stamped on worker spans/logs
    trace: tracing.SpanContext | None = None  # parent trace propagation
    metrics_enabled: bool = False  # mirror the parent registry's state


def _worker_main(conn, init: _WorkerInit) -> None:
    """Span worker loop: build once, then serve span ops over the pipe."""
    from repro.storage import open_store  # deferred: storage imports core

    # Fresh per-process observability: forget (never close -- the file
    # handle is shared under fork) any inherited tracer, trace into a
    # local buffer the parent drains over the pipe, and reset the metrics
    # registry so counters are per-shard.
    tracing.forget_tracer()
    trace_sink: tracing.BufferSink | None = None
    if init.trace is not None:
        trace_sink = tracing.BufferSink()
        tracing.configure_tracing(
            sink=trace_sink,
            trace_id=init.trace.trace_id,
            ambient_parent=init.trace.span_id,
            base_attrs={"shard": init.shard},
        )
    registry = metrics.get_registry()
    registry.reset()
    registry.enabled = init.metrics_enabled

    try:
        faults.fire("parallel.worker.start", shard=init.shard)
        path, traj_lo, traj_hi = init.store
        engine = NMEngine(
            open_store(path).span(traj_lo, traj_hi),
            init.grid,
            init.config,
            prebuilt=init.index,
        )
        _log.debug(
            "shard worker ready",
            extra={
                "shard": init.shard,
                "n_traj": len(engine.dataset),
                "n_entries": engine.n_index_entries,
            },
        )
        conn.send(("ok", span_meta(engine)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass  # parent already gone; exit quietly
        conn.close()
        return

    running = True
    try:
        while running:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op, payload = msg
            try:
                faults.fire("parallel.worker.op", shard=init.shard, op=op)
                if op == "close":
                    result, running = None, False
                elif op == "obs_drain":
                    result = trace_sink.drain() if trace_sink is not None else []
                else:
                    result = run_span_op(engine, op, payload)
                conn.send(("ok", result))
            except BaseException:
                try:
                    conn.send(("error", traceback.format_exc()))
                except (OSError, ValueError):
                    break  # parent is gone: nothing to report to
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- pools ------------------------------------------------------------------------
#
# Every pool kind exposes the same small surface to the coordinator:
# ``open(spans)`` builds engines for *absolute* store spans and returns
# their metadata, ``dispatch`` sends one op covering a span subset without
# waiting, ``collect`` gathers the per-span results, ``ping`` is the
# heartbeat, ``drain_trace_records`` empties the pool's span buffers and
# ``close`` releases everything.  Connection loss, worker death and
# deadline overruns surface as PoolFailure -- the coordinator's cue to fail
# over.  An explicit error *reply* raises RuntimeError instead: the pool is
# alive and the request itself failed, so retrying elsewhere would just
# fail identically.


class LocalPool:
    """Fork workers on this machine, one per assigned span.

    ``make_init`` builds the :class:`_WorkerInit` of one span; the
    coordinator supplies it so a span re-opened here after a failover gets
    the same shard ordinal it had on its first pool.
    """

    kind = "local"

    def __init__(
        self,
        name: str,
        make_init: Callable[[Span], _WorkerInit],
        *,
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
    ) -> None:
        self.name = name
        self.op_timeout_s = op_timeout_s
        self.spans: list[Span] = []
        self._make_init = make_init
        # span -> (pipe, process, shard ordinal)
        self._workers: dict[Span, tuple[Any, Any, int]] = {}
        self._pending: list[Span] = []
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")

    def open(self, spans: Sequence[Span]) -> list[dict]:
        # Fork every worker before reading any handshake, so the span
        # index builds run concurrently.
        for span in spans:
            init = self._make_init(span)
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn, init), daemon=True
            )
            proc.start()
            child_conn.close()
            self._workers[span] = (parent_conn, proc, init.shard)
        self.spans = sorted(self._workers)
        self._pending = list(spans)
        return [{"span": list(span), **meta} for span, meta in self.collect().items()]

    def dispatch(self, op: str, payload, spans: Sequence[Span]) -> None:
        self._pending = list(spans)
        for span in self._pending:
            try:
                self._workers[span][0].send((op, payload))
            except (OSError, ValueError) as exc:
                raise self._died(span) from exc

    def collect(self) -> dict[Span, Any]:
        """Every pending span's reply, in dispatch order.

        All replies are read before a reported error is raised, so no
        stale reply is left in a pipe to be mistaken for the next op's.
        """
        pending, self._pending = self._pending, []
        out: dict[Span, Any] = {}
        errors: list[str] = []
        for span in pending:
            conn, _proc, shard = self._workers[span]
            try:
                if not conn.poll(self.op_timeout_s):
                    raise PoolFailure(
                        self,
                        f"shard worker {shard} timed out after {self.op_timeout_s}s",
                    )
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise self._died(span) from exc
            if status == "error":
                errors.append(f"shard worker {shard} failed:\n{payload}")
            else:
                out[span] = payload
        if errors:
            raise RuntimeError(errors[0])
        return out

    def _died(self, span: Span) -> PoolFailure:
        _conn, proc, shard = self._workers[span]
        proc.join(timeout=5)
        return PoolFailure(
            self, f"shard worker {shard} died (exitcode {proc.exitcode})"
        )

    def ping(self) -> bool:
        return all(proc.is_alive() for _conn, proc, _shard in self._workers.values())

    def drain_trace_records(self) -> list:
        # Best effort (it runs from close(), possibly with dead workers):
        # spans from live workers still land.
        records: list = []
        for conn, _proc, _shard in self._workers.values():
            try:
                conn.send(("obs_drain", None))
                if not conn.poll(5):
                    continue
                status, payload = conn.recv()
            except (EOFError, OSError, ValueError):
                continue
            if status == "ok":
                records.extend(payload)
        return records

    def close(self) -> None:
        for conn, _proc, _shard in self._workers.values():
            try:
                conn.send(("close", None))
            except (OSError, ValueError):
                pass
        for conn, proc, _shard in self._workers.values():
            try:
                conn.close()
            except OSError:
                pass
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._workers.clear()
        self.spans = []
        self._pending = []


# -- the coordinator ------------------------------------------------------------------


class ParallelNMEngine(SpanEvaluator):
    """Sharded NM/match evaluation over pools, with an NMEngine-like API.

    Parameters
    ----------
    dataset, grid, config:
        Exactly as for :class:`~repro.core.engine.NMEngine`;
        ``config.cache_dir`` enables the shared on-disk index cache (local
        pools only).
    jobs:
        Number of trajectory spans (capped at the trajectory count);
        defaults to ``max(config.jobs, len(pools))``.
    pools:
        Pool specs: ``"local"`` (fork workers on this machine) or
        ``"host:port"`` (a ``repro worker`` process whose local store copy
        hashes identically -- needs a store-backed dataset).  Spans are
        assigned round-robin.
    op_timeout_s, connect_timeout_s:
        Per-op deadline of every pool, and the TCP connect/handshake
        deadline of remote pools; a pool that overruns is failed over.

    The instance owns worker processes, connections and (for an in-memory
    dataset) a spill file; call :meth:`close` (or use it as a context
    manager) to release them.  All evaluation results equal the
    single-process engine to floating-point accuracy -- the merge is an
    exact reduction over per-trajectory terms -- and are bit-identical for
    every pool mix at the same ``jobs``.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        grid: Grid,
        config: EngineConfig,
        jobs: int | None = None,
        pools: Sequence[str] = ("local",),
        *,
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
    ) -> None:
        self._closed = False
        self.spill_path: str | None = None
        self._pools: list = []
        self._live: list = []
        if len(dataset) == 0:
            raise ValueError("cannot build an engine over an empty dataset")
        specs = [parse_pool_spec(spec) for spec in pools]
        if not specs:
            raise ValueError("at least one pool is required")
        jobs = max(config.jobs, len(specs)) if jobs is None else jobs
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        store_ref = getattr(dataset, "store_ref", None)
        if store_ref is None and any(kind == "remote" for kind, _ in specs):
            raise ValueError(
                "remote pools need a store-backed dataset: they open their "
                "own copy of the store and are shipped (store_hash, lo, hi) "
                "spans, never data -- convert with `repro convert` and "
                "reopen via repro.storage"
            )
        self.dataset = dataset
        self.grid = grid
        self.config = config
        self.shard_bounds = shard_dataset(dataset, jobs)
        self.n_shards = len(self.shard_bounds)
        self.index_cache_hit = False
        self._trace_ctx = tracing.current_context()
        self._metrics_enabled = metrics.get_registry().enabled
        self._worker_config = replace(
            config, jobs=1, cache_dir=None, trace_out=None, metrics_out=None
        )
        self._assignment: dict[Span, Any] = {}
        self._span_meta: dict[Span, dict] = {}
        self._prebuilt: dict[Span, tuple] = {}
        try:
            if store_ref is None:
                store_ref = (self._spill(), 0, len(dataset))
            path, base_lo, _base_hi = store_ref
            self._store_path = str(path)
            # Spans live in *absolute* store coordinates; relative and
            # absolute order coincide, so merge order is unaffected.
            self._spans = [(base_lo + lo, base_lo + hi) for lo, hi in self.shard_bounds]
            self._absolute = dict(zip(self.shard_bounds, self._spans))
            for i, (kind, address) in enumerate(specs):
                if kind == "local":
                    pool = LocalPool(
                        f"local-{i}", self._worker_init, op_timeout_s=op_timeout_s
                    )
                else:
                    from repro.dist.coordinator import RemotePool  # deferred: layering

                    pool = RemotePool(
                        f"remote-{i}",
                        address,
                        op_timeout_s=op_timeout_s,
                        connect_timeout_s=connect_timeout_s,
                    )
                self._pools.append(pool)
            self._start()
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- startup ---------------------------------------------------------------

    def _spill(self) -> str:
        """Write the in-memory dataset to a temporary ``.tjc``; return its path."""
        from repro.storage import write_store  # deferred: storage imports core

        fd, path = tempfile.mkstemp(prefix=SPILL_PREFIX, suffix=".tjc")
        os.close(fd)
        self.spill_path = path
        write_store(self.dataset, path, metadata={})
        return path

    def _worker_init(self, span: Span) -> _WorkerInit:
        lo, hi = span
        return _WorkerInit(
            grid=self.grid,
            config=self._worker_config,
            store=(self._store_path, lo, hi),
            # Cache-loaded rows serve the first open only; a span re-opened
            # after a failover rebuilds the same index itself.
            index=self._prebuilt.pop(span, None),
            shard=self._spans.index(span),
            trace=self._trace_ctx,
            metrics_enabled=self._metrics_enabled,
        )

    def _row_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.dataset.lengths())]).astype(np.int64)

    def _start(self) -> None:
        key = None
        cache_dir = self.config.cache_dir
        if cache_dir is not None and all(p.kind == "local" for p in self._pools):
            key = index_cache.cache_key(
                self.dataset,
                self.grid,
                self.config,
                kernel_tag=kernels.prob_kernel_tag(self.config),
            )
            offsets = self._row_offsets()
            loaded = index_cache.load_index(
                cache_dir, key, n_rows=int(offsets[-1]), n_cells=self.grid.n_cells
            )
            if loaded is not None:
                self.index_cache_hit = True
                cells, rows, vals = loaded
                for span, (lo, hi) in zip(self._spans, self.shard_bounds):
                    keep = (rows >= offsets[lo]) & (rows < offsets[hi])
                    self._prebuilt[span] = (
                        cells[keep], rows[keep] - offsets[lo], vals[keep]
                    )

        self._live = list(self._pools)
        remotes = [p for p in self._pools if p.kind == "remote"]
        if remotes:
            from repro.storage import open_store  # deferred: storage imports core

            with open_store(self._store_path) as store:
                store_hash = store.content_hash
        for pool in remotes:
            try:
                pool.hello(
                    store_hash=store_hash,
                    grid=self.grid,
                    config=self.config,
                    kernel_tag=kernels.prob_kernel_tag(self.config),
                    trace=self._trace_ctx,
                    metrics_enabled=self._metrics_enabled,
                )
            except PoolFailure as exc:
                self._fail_pool(pool, exc.cause)
        for i, span in enumerate(self._spans):
            self._assignment[span] = self._live[i % len(self._live)]
        self._open(self._spans)

        metas = [self._span_meta[span] for span in self._spans]
        self._shard_entries = [int(meta["n_entries"]) for meta in metas]
        # Workers re-resolve the kernel backend in their own process, so a
        # "compiled"/"auto" config may land differently there than in the
        # parent; report what the shards actually run.
        self._backend_name = str(metas[0].get("backend", "numpy"))
        self.n_index_entries = int(sum(self._shard_entries))
        cells: set[int] = set()
        for meta in metas:
            cells.update(int(c) for c in meta["active_cells"])
        self._active_cells = sorted(cells)
        self.shard_skew = _skew(self._shard_entries)
        metrics.gauge("parallel.shard_skew").set(self.shard_skew)
        metrics.counter("parallel.workers_started").inc(self.n_shards)
        _log.info(
            "shard workers ready",
            extra={
                "jobs": self.n_shards,
                "pools": self.pool_names,
                "shard_bounds": self.shard_bounds,
                "shard_entries": self._shard_entries,
                "shard_skew": self.shard_skew,
                "index_cache_hit": self.index_cache_hit,
                "backend": self._backend_name,
            },
        )
        if key is not None and not self.index_cache_hit:
            self._persist_cold_index(cache_dir, key)

    def _persist_cold_index(self, cache_dir, key: str) -> None:
        """Merge the freshly built span indexes and write the shared cache.

        Rows are shifted to dataset coordinates, concatenated and
        (cell, row)-sorted -- byte-identical to what a serial engine would
        persist, so either path can warm-start the other.
        """
        parts = self._merged("index_arrays")
        faults.fire("parallel.parent.merge", key=key)
        offsets = self._row_offsets()
        all_cells = np.concatenate([p[0] for p in parts])
        all_rows = np.concatenate(
            [p[1] + offsets[lo] for (lo, _hi), p in zip(self.shard_bounds, parts)]
        )
        all_vals = np.concatenate([p[2] for p in parts])
        order = np.lexsort((all_rows, all_cells))
        index_cache.save_index(
            cache_dir, key, all_cells[order], all_rows[order], all_vals[order]
        )

    # -- dispatch with failover --------------------------------------------------

    def _by_pool(self, spans: Sequence[Span]) -> dict[Any, list[Span]]:
        by_pool: dict[Any, list[Span]] = {}
        for span in spans:
            by_pool.setdefault(self._assignment[span], []).append(span)
        return by_pool

    def _fail_pool(self, pool, cause: str) -> None:
        """Retire one dead pool and hand its spans to the survivors.

        With no survivor the engine closes itself and raises
        :class:`WorkerCrashError`.
        """
        if pool not in self._live:
            return
        self._live.remove(pool)
        metrics.counter("parallel.worker_crash").inc()
        orphaned = [s for s in self._spans if self._assignment.get(s) is pool]
        _log.warning(
            "pool failed",
            extra={
                "pool": pool.name,
                "cause": cause,
                "orphaned_spans": orphaned,
                "survivors": self.pool_names,
            },
        )
        try:
            pool.close()
        except Exception:  # noqa: BLE001 - teardown of a dead pool
            pass
        if not self._live:
            self.close()
            raise WorkerCrashError(
                f"pool {pool.name!r} failed ({cause}) and no pool survives; "
                "engine closed"
            )
        metrics.counter("parallel.spans_redispatched").inc(len(orphaned))
        for i, span in enumerate(orphaned):
            self._assignment[span] = self._live[i % len(self._live)]

    def _open(self, spans: Sequence[Span]) -> None:
        """Open ``spans`` on their assigned pools, failing over dead ones."""
        while True:
            todo = [s for s in spans if s not in self._assignment[s].spans]
            if not todo:
                return
            for pool, pool_spans in self._by_pool(todo).items():
                try:
                    metas = pool.open(pool_spans)
                except PoolFailure as exc:
                    self._fail_pool(pool, exc.cause)
                    continue
                for meta in metas:
                    self._span_meta[tuple(meta["span"])] = meta

    def _dispatch(
        self, op: str, payload=None, spans: Sequence[Span] | None = None
    ) -> dict[Span, Any]:
        """Run one op over ``spans`` (default: all), surviving pool deaths.

        Requests go out to every pool before any reply is read, so the
        pools compute concurrently.  Results come back keyed by span; the
        caller merges them in global span order.
        """
        if self._closed:
            raise RuntimeError("ParallelNMEngine is closed")
        todo = list(self._spans) if spans is None else list(spans)
        results: dict[Span, Any] = {}
        while todo:
            dispatched = []
            for pool, pool_spans in self._by_pool(todo).items():
                try:
                    pool.dispatch(op, payload, pool_spans)
                    dispatched.append(pool)
                except PoolFailure as exc:
                    self._fail_pool(pool, exc.cause)
            error: RuntimeError | None = None
            for pool in dispatched:
                # Collect from every pool even after a reported error, so
                # no reply is left behind to desynchronise the next op.
                try:
                    results.update(pool.collect())
                except PoolFailure as exc:
                    self._fail_pool(pool, exc.cause)
                except RuntimeError as exc:
                    error = error or exc
            if error is not None:
                raise error
            todo = [s for s in todo if s not in results]
            if todo:
                self._open(todo)
        return results

    def _span_bounds(self) -> list[Span]:
        return list(self.shard_bounds)

    def _run_spans(
        self, op: str, payload: Any = None, spans: Sequence[Span] | None = None
    ) -> list[tuple[Span, Any]]:
        bounds = self.shard_bounds if spans is None else list(spans)
        absolute = [self._absolute[span] for span in bounds]
        results = self._dispatch(op, payload, absolute)
        return [(span, results[a]) for span, a in zip(bounds, absolute)]

    # -- metadata --------------------------------------------------------------

    @property
    def active_cells(self) -> list[int]:
        """Cells with at least one above-floor entry, ascending (union)."""
        return list(self._active_cells)

    @property
    def floor_log_prob(self) -> float:
        """The log-space probability floor."""
        return self.config.min_log_prob

    @property
    def backend_name(self) -> str:
        """Kernel backend the shard workers resolved to ("numpy", "cnative", ...)."""
        return self._backend_name

    @property
    def pool_names(self) -> list[str]:
        """Names of the pools still serving spans."""
        return [p.name for p in self._live]

    @property
    def n_evaluations(self) -> int:
        """Total pattern evaluations across all shard workers."""
        return sum(n for n, _ in self._merged("stats"))

    @property
    def n_batches(self) -> int:
        """Total batched-evaluation rounds across all shard workers."""
        return sum(b for _, b in self._merged("stats"))

    # -- observability ------------------------------------------------------------

    def heartbeat(self) -> dict[str, bool]:
        """Ping every live pool; a dead pool fails over on the next op."""
        return {pool.name: pool.ping() for pool in list(self._live)}

    def obs_snapshot(self) -> dict:
        """Per-shard counters plus imbalance gauges, in one round-trip.

        The aggregate ``n_evaluations`` / ``n_batches`` properties hide
        *where* the work happened; this snapshot keeps the per-shard
        numbers (trajectory span, serving pool, index entries, evaluations,
        batches and each worker's metric snapshot) so shard imbalance is
        visible: snapshot-balanced spans over skewed cell density give
        uneven ``n_entries``, surfaced as the ``shard_skew`` gauge (max/mean
        of per-shard index entries) and ``eval_skew`` (max/mean of
        per-shard evaluation counts).
        """
        shards = [
            {
                "shard": i,
                **snapshot,
                "trajectories": list(bounds),
                "pool": self._assignment[self._absolute[bounds]].name,
            }
            for i, (bounds, snapshot) in enumerate(self._run_spans("obs_snapshot"))
        ]
        entry_skew = _skew([s["n_entries"] for s in shards])
        eval_skew = _skew([s["n_evaluations"] for s in shards])
        metrics.gauge("parallel.shard_skew").set(entry_skew)
        metrics.gauge("parallel.eval_skew").set(eval_skew)
        return {
            "n_shards": self.n_shards,
            "pools": self.pool_names,
            "backend": self._backend_name,
            "n_index_entries": self.n_index_entries,
            "n_evaluations": sum(s["n_evaluations"] for s in shards),
            "n_batches": sum(s["n_batches"] for s in shards),
            "shard_skew": entry_skew,
            "eval_skew": eval_skew,
            "shards": shards,
        }

    def drain_trace(self) -> int:
        """Pull buffered worker span records into the parent's trace sink.

        Workers trace into in-memory buffers; this drains every live pool
        and writes the records verbatim, so shard-side ``index.build`` /
        ``engine.nm_batch`` spans land in the parent's JSONL file already
        parented to the span that was current when the engine was
        constructed.  Returns the number of records written.  Called
        automatically by :meth:`close`.
        """
        if self._trace_ctx is None or tracing.get_tracer() is None:
            return 0
        if self._closed:
            return 0
        total = 0
        for pool in list(self._live):
            records = pool.drain_trace_records()
            if records:
                tracing.emit_foreign(records)
                total += len(records)
        return total

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut every pool down and remove the spill file.

        Idempotent; also registered with ``atexit`` and invoked by the
        context-manager exit, the finaliser and the no-survivor teardown.
        """
        if self._closed:
            return
        try:
            # Last chance to collect worker spans; tolerate dead workers
            # or an already-shut tracer (close may run from atexit).
            self.drain_trace()
        except Exception:  # noqa: BLE001 - close must never raise
            pass
        self._closed = True
        for pool in self._pools:
            try:
                pool.close()
            except Exception:  # noqa: BLE001
                pass
        self._live = []
        if self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass

    def __enter__(self) -> "ParallelNMEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
