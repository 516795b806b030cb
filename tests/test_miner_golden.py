"""Decision identity of the miner against recorded golden values.

Every configuration below is mined and reduced to the decisions the
miner made: the full :class:`MinerStats` counts, every
:class:`IterationTrace` (minus its wall time), the top-k cells with the
``repr`` of each NM float and ``omega``.
``tests/golden/miner_decisions.json`` holds the values the dict-based
control plane produced; the columnar book must reproduce them exactly.

Regenerate (only when a change *intends* to alter the miner's
decisions, and say so in CHANGES.md)::

    PYTHONPATH=src python tests/test_miner_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.incremental import IncrementalIndexer
from repro.core.trajpattern import MiningResult, TrajPatternMiner
from repro.experiments.datasets import zebranet_dataset
from repro.experiments.fig4 import Fig4Config
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

GOLDEN = Path(__file__).parent / "golden" / "miner_decisions.json"

_STAT_FIELDS = (
    "iterations",
    "candidates_generated",
    "candidates_evaluated",
    "candidates_bounded",
    "candidates_bound_pruned",
    "candidates_cached",
    "patterns_pruned",
    "final_q_size",
    "eval_batches",
    "max_batch_size",
)
_TRACE_FIELDS = (
    "iteration",
    "n_high",
    "n_exact",
    "n_bounded",
    "candidates_evaluated",
    "patterns_pruned",
    "batch_size",
)


def decisions(result: MiningResult) -> dict:
    """Everything the miner decided, as JSON-comparable values."""
    stats = result.stats
    return {
        "stats": {name: getattr(stats, name) for name in _STAT_FIELDS},
        "trace": [
            {"omega": repr(t.omega), **{f: getattr(t, f) for f in _TRACE_FIELDS}}
            for t in stats.trace
        ],
        "top_k": [
            [[int(c) for c in p.cells], repr(float(nm))]
            for p, nm in result.as_pairs()
        ],
        "omega": repr(float(result.omega)),
    }


# -- configurations --------------------------------------------------------------


def _tiny_4735() -> NMEngine:
    """The pinned convergence counterexample of the randomised oracle."""
    rng = np.random.default_rng(4735)
    trajectories = []
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(3, 8))
        means = rng.uniform(0.0, 1.0, (n, 2))
        trajectories.append(UncertainTrajectory(means, float(rng.uniform(0.1, 0.4))))
    return NMEngine(
        TrajectoryDataset(trajectories),
        Grid(BoundingBox.unit(), nx=2, ny=2),
        EngineConfig(delta=0.25, min_prob=1e-4),
    )


def _zebra(n: int, ticks: int, cell: float, seed: int = 3) -> NMEngine:
    dataset = zebranet_dataset(n_trajectories=n, n_ticks=ticks, sigma=0.01, seed=seed)
    return NMEngine(
        dataset, dataset.make_grid(cell), EngineConfig(delta=cell, min_prob=1e-4)
    )


def _mine_tiny(extension: bool, bound: bool) -> list[dict]:
    return [
        decisions(
            TrajPatternMiner(
                _tiny_4735(),
                k=3,
                max_length=4,
                use_extension_pruning=extension,
                use_bound_pruning=bound,
            ).mine()
        )
    ]


def _mine_large_alphabet() -> list[dict]:
    # 4,488 grid cells, candidates of up to seven cells: keys of six or
    # more cells overflow one int64 word.
    return [decisions(TrajPatternMiner(_zebra(60, 40, 0.02), k=12).mine())]


def _mine_long_paths() -> list[dict]:
    """Six near-identical straight paths on a 3,600-cell grid.

    High patterns reach ten cells, so the high set itself (not only the
    candidates) carries keys in the overflow form.
    """
    rng = np.random.default_rng(0)
    path = np.column_stack([np.linspace(0.05, 0.95, 12), np.linspace(0.9, 0.1, 12)])
    trajectories = [
        UncertainTrajectory(path + rng.normal(0, 0.002, path.shape), 0.004)
        for _ in range(6)
    ]
    engine = NMEngine(
        TrajectoryDataset(trajectories),
        Grid(BoundingBox.unit(), nx=60, ny=60),
        EngineConfig(delta=0.02, min_prob=1e-4),
    )
    return [decisions(TrajPatternMiner(engine, k=40).mine())]


def _mine_min_length() -> list[dict]:
    engine = _zebra(30, 30, 0.03)
    return [decisions(TrajPatternMiner(engine, k=5, min_length=2).mine())]


def _mine_max_length() -> list[dict]:
    engine = _zebra(30, 30, 0.03)
    return [decisions(TrajPatternMiner(engine, k=6, max_length=2).mine())]


def _mine_ablation(extension: bool, bound: bool) -> list[dict]:
    config = Fig4Config(k=3, n_trajectories=10, n_ticks=25, target_cells=400)
    return [
        decisions(
            TrajPatternMiner(
                config.make_engine(),
                k=config.k,
                use_extension_pruning=extension,
                use_bound_pruning=bound,
            ).mine()
        )
    ]


def _mine_warm_chain() -> list[dict]:
    """Three re-mines, each from scratch, over a windowed incremental engine."""
    trajectories = list(zebranet_dataset(n_trajectories=70, n_ticks=30, seed=5))
    base = TrajectoryDataset(trajectories[:40])
    engine = NMEngine(base, base.make_grid(0.02), EngineConfig(delta=0.02, min_prob=1e-4))
    indexer = IncrementalIndexer(engine, window=40)
    out = []
    for wave in range(3):
        indexer.append(trajectories[40 + 10 * wave : 50 + 10 * wave])
        out.append(decisions(TrajPatternMiner(indexer.engine, k=8).mine()))
    return out


CONFIGS = {
    "tiny-4735": lambda: _mine_tiny(True, True),
    "tiny-4735-no-pruning": lambda: _mine_tiny(False, False),
    "zebra-4488-cells-k12": _mine_large_alphabet,
    "long-paths-3600-cells": _mine_long_paths,
    "min-length-2": _mine_min_length,
    "max-length-2": _mine_max_length,
    "ablation-both": lambda: _mine_ablation(True, True),
    "ablation-no-extension": lambda: _mine_ablation(False, True),
    "ablation-no-bound": lambda: _mine_ablation(True, False),
    "ablation-none": lambda: _mine_ablation(False, False),
    "warm-ingest-chain": _mine_warm_chain,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_decisions_match_golden(name, golden):
    assert CONFIGS[name]() == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: run() for name, run in sorted(CONFIGS.items())}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
