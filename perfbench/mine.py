"""The in-process mining workload, ``mine-coarse``.

The small-G, large-S end of the paper's Fig. 4(d) grid sweep on ZebraNet
data: 1000 trajectories x 200 ticks on a ~64-cell grid (~1M index
entries).  Few, long candidates: the engine's evaluation and the compiled
kernels do most of the work.

How long a mine takes depends on the data: one seed converges in three
iterations, the next in five.  A run therefore mines a *pool* of datasets
drawn from the workload seed, and reports pool means, so the run-to-run
spread reflects the program rather than which dataset a seed drew.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import fmean as mean, median

from perfbench import checks, spans
from perfbench.common import Result, peak_rss_mb


@dataclass(frozen=True)
class MineSpec:
    n_trajectories: int
    n_ticks: int
    pool: int
    target_cells: int  # a grid of about this many cells
    sigma: float = 0.01
    min_prob: float = 1e-4
    k: int = 8


SPECS = {
    "mine-coarse": MineSpec(1000, 200, pool=20, target_cells=64),
}

#: Small enough for the benchmark's own tests.
SMOKE = {
    "mine-coarse": MineSpec(100, 40, pool=2, target_cells=64),
}


def _build(spec: MineSpec, seed: int):
    """Dataset + engine for one pool member; returns timings too."""
    from repro.core.engine import EngineConfig, NMEngine
    from repro.experiments.datasets import grid_with_cells, zebranet_dataset

    t0 = time.perf_counter()
    dataset = zebranet_dataset(
        n_trajectories=spec.n_trajectories,
        n_ticks=spec.n_ticks,
        sigma=spec.sigma,
        seed=seed,
    )
    # Fig. 4(d) convention: delta is the cell side.
    grid = grid_with_cells(dataset, spec.target_cells)
    delta = min(grid.gx, grid.gy)
    # "auto" is the CLI default: the compiled backend when a C toolchain
    # (or numba) is present, numpy otherwise.
    config = EngineConfig(delta=delta, min_prob=spec.min_prob, backend="auto")
    t1 = time.perf_counter()
    engine = NMEngine(dataset, grid, config)
    t2 = time.perf_counter()
    return engine, t2 - t0, t2 - t1


def _mine_once(engine, k: int):
    from repro.core.trajpattern import TrajPatternMiner

    t0 = time.monotonic_ns()
    result = TrajPatternMiner(engine, k=k).mine()
    t1 = time.monotonic_ns()
    topk = [(tuple(int(c) for c in p.cells), float(nm)) for p, nm in result.as_pairs()]
    s = result.stats
    counts = (
        s.iterations,
        s.candidates_generated,
        s.candidates_evaluated,
        s.candidates_bounded,
        s.final_q_size,
    )
    return (t0, t1), topk, counts


def _rescore(engine, topk) -> list[float]:
    """Re-score a top-k from the engine's index arrays, without its kernels.

    This is the benchmark's own transcription of the numerical contract in
    ``repro.core.kernels.numpy_ref``.  A window's score is the pattern's
    all-floor baseline plus the deviations ``value - floor`` of the index
    entries it touches, accumulated one pattern offset at a time, offsets
    ascending: ``((0 + d0) + d1) + d2``.  Each trajectory keeps its best
    valid window (never below the baseline), and the per-trajectory terms
    are totalled by one ``np.add.reduceat``, as the engine totals them.
    Singular patterns follow ``singular_nm_table`` (the miner seeds them
    from it): each trajectory touching the cell swaps its floor term for
    its best entry.
    """
    import numpy as np

    flat_cells, rows, vals = engine.index_arrays()  # sorted by (cell, row)
    floor = engine.floor_log_prob
    lengths = np.asarray(engine.dataset.lengths(), dtype=np.int64)
    n_traj = len(lengths)
    row_traj = np.repeat(np.arange(n_traj, dtype=np.int64), lengths)

    def entries(cell: int) -> slice:
        lo, hi = np.searchsorted(flat_cells, [cell, cell + 1])
        return slice(int(lo), int(hi))

    def run_starts(keys: np.ndarray) -> np.ndarray:
        return np.concatenate([[0], np.nonzero(np.diff(keys))[0] + 1])

    out = []
    for cells, _ in topk:
        if len(cells) == 1:
            sl = entries(cells[0])
            best = np.maximum.reduceat(vals[sl], run_starts(row_traj[rows[sl]]))
            gain = np.add.reduceat(best - floor, [0])[0]
            out.append(floor * n_traj + float(gain))
            continue
        m = len(cells)
        n_windows = len(row_traj) - m + 1
        windows = np.nonzero(row_traj[:n_windows] == row_traj[m - 1 :])[0]
        score = np.zeros(n_windows)
        for j, cell in enumerate(cells):  # the miner emits no wildcards
            sl = entries(cell)
            w = rows[sl] - j
            keep = (w >= 0) & (w < n_windows)
            # One entry per (cell, row): each window gets at most one term
            # per offset, so this is the sequential per-window sum.
            score[w[keep]] += vals[sl][keep] - floor
        traj = row_traj[windows]
        best = np.maximum(np.maximum.reduceat(score[windows], run_starts(traj)), 0.0)
        total = np.add.reduceat(best + floor * float(m), [0])[0]
        n_eligible = len(np.unique(traj))
        out.append(float(total / m + floor * (n_traj - n_eligible)))
    return out


def _warm_up(spec: MineSpec) -> None:
    """Pay one-off costs (imports, the compiled-kernel build) before timing."""
    from repro.core import kernels

    kernels.resolve_backend("auto", "float64")
    engine, _, _ = _build(replace(spec, n_trajectories=10, n_ticks=10), 0)
    _mine_once(engine, 2)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    spec = (SMOKE if smoke else SPECS)[name]
    _warm_up(spec)
    recorder = spans.Recorder()
    if trace:
        spans.install(recorder)
    result = Result()
    setup_s, update_s, p50_s, max_s = [], [], [], []
    generated_total = 0
    mine_total_s = 0.0
    traced_mines: list[tuple[int, int, int]] = []  # (lo, hi, pool member)
    overhead: list[float] = []
    per_dataset: list[dict] = []
    n_mines = 0
    slice_s = seconds / spec.pool

    for member in range(spec.pool):
        build_lo = time.monotonic_ns()
        engine, total_s, build_s = _build(spec, seed * 1000 + member)
        build_hi = time.monotonic_ns()
        setup_s.append(total_s)
        (lo, hi), first_topk, first_counts = _mine_once(engine, spec.k)
        update_s.append(build_s + (hi - lo) / 1e9)
        repetitions = [first_topk]
        counts_seen = {first_counts}
        # The first mine on a fresh engine is a sample like the others (it
        # also ends the data-to-answer time, update_s); a traced run leaves
        # it out of the traced/untraced comparison.
        cold = [] if trace else [(hi - lo) / 1e9]
        walls: dict[bool, list[float]] = {False: cold, True: []}
        slice_end = time.perf_counter() + slice_s
        rep = 0
        # In a traced run the repeat mines alternate traced/untraced, so the
        # overhead compares like with like.
        while rep < (2 if trace else 1) or time.perf_counter() < slice_end:
            traced = trace and rep % 2 == 0
            if trace and not traced:
                recorder.uninstall()
            (lo, hi), topk, counts = _mine_once(engine, spec.k)
            if trace and not traced:
                spans.install(recorder)
            walls[traced].append((hi - lo) / 1e9)
            if traced:
                traced_mines.append((lo, hi, member))
            repetitions.append(topk)
            counts_seen.add(counts)
            rep += 1
        n_mines += 1 + rep

        untraced = walls[False]
        if trace:
            overhead.append(median(walls[True]) / median(untraced) - 1.0)
        else:
            p50_s.append(median(untraced))
            max_s.append(max(untraced))
            generated_total += first_counts[1] * len(untraced)
            mine_total_s += sum(untraced)
        per_dataset.append(
            {
                "counts": first_counts,
                "entries": engine.n_index_entries,
                "active": len(engine.active_cells),
                "build_window": (build_lo, build_hi),
            }
        )
        context = f"dataset {member}"
        result.check(checks.topk_repeats(repetitions), context)
        if len(counts_seen) > 1:
            result.check(
                f"miner counts changed between repetitions {sorted(counts_seen)}",
                context,
            )
        result.check(
            checks.rescored_equal(first_topk, _rescore(engine, first_topk)), context
        )
        del engine

    result.attempted = n_mines
    m = result.metrics
    if not trace:
        m["setup_s"] = median(setup_s)
        m["latency_p50_ms"] = mean(p50_s) * 1e3
        m["latency_tail_ms"] = mean(max_s) * 1e3
        m["update_s"] = mean(update_s)
        m["throughput_per_s"] = generated_total / mine_total_s
    m["peak_rss_mb"] = peak_rss_mb()
    _layer_metrics(m, spec, recorder, per_dataset, traced_mines, overhead, n_mines)
    if trace and not 95.0 <= m["trace.attributed_pct"] <= 105.0:
        result.check(
            f"layer self times cover {m['trace.attributed_pct']:.1f}% of the "
            "mine wall (tolerance 95-105%)"
        )
    return result


def _layer_metrics(m, spec, recorder, per_dataset, traced_mines, overhead, n_mines):
    """Per-layer figures, per mine, averaged over the pool (0 when untraced)."""
    counts = [d["counts"] for d in per_dataset]
    n_singular = [d["active"] for d in per_dataset]
    m["engine.index_entries"] = mean(d["entries"] for d in per_dataset)
    m["miner.iterations"] = mean(c[0] for c in counts)
    m["miner.generated"] = mean(c[1] for c in counts)
    m["miner.bounded"] = mean(c[3] for c in counts)
    m["miner.final_q"] = mean(c[4] for c in counts)
    # Exact evaluations beyond the singular seeds, per generated candidate.
    m["miner.eval_yield"] = mean(
        (c[2] - s) / c[1] if c[1] else 0.0 for c, s in zip(counts, n_singular)
    )
    m["driver.samples"] = n_mines
    if not traced_mines:
        return
    recorded = spans.snapshot(recorder)
    builds = [
        spans.self_times(recorded, *d["build_window"]).get("engine.index_build")
        for d in per_dataset
    ]
    m["engine.index_build_s"] = mean(b["total_ns"] for b in builds if b) / 1e9

    def per_mine(name: str, field: str = "self_ns") -> list[float]:
        return [
            spans.self_times(recorded, lo, hi).get(name, {}).get(field, 0)
            for lo, hi, _ in traced_mines
        ]

    walls = [hi - lo for lo, hi, _ in traced_mines]
    nm_ns = per_mine("engine.nm_batch", "total_ns")
    calls = per_mine("engine.nm_batch", "count")
    # Patterns per nm_batch call are not visible from outside, but the
    # calls score exactly the miner's exact evaluations beyond the
    # singular seeds.
    candidates = [c[2] - s for c, s in zip(counts, n_singular)]
    m["engine.nm_batch_s"] = mean(nm_ns) / 1e9
    m["engine.nm_batch_calls"] = mean(calls)
    m["engine.candidates"] = mean(candidates)
    m["engine.nm_batch_share_pct"] = 100.0 * sum(nm_ns) / sum(walls)
    work = sum(candidates[member] for _, _, member in traced_mines)
    m["engine.cand_traj_per_s"] = (
        work * spec.n_trajectories / (sum(nm_ns) / 1e9) if sum(nm_ns) else 0.0
    )
    m["engine.singular_table_s"] = mean(per_mine("engine.singular_table", "total_ns")) / 1e9
    m["miner.self_s"] = mean(per_mine("miner.mine")) / 1e9
    m["topk.book_s"] = mean(per_mine("topk.book", "total_ns")) / 1e9
    m["pruning.prune_s"] = mean(per_mine("pruning.prune", "total_ns")) / 1e9
    attributed = [
        sum(e["self_ns"] for e in spans.self_times(recorded, lo, hi).values())
        for lo, hi, _ in traced_mines
    ]
    m["trace.attributed_pct"] = 100.0 * sum(attributed) / sum(walls)
    m["trace.overhead_pct"] = 100.0 * mean(overhead)

