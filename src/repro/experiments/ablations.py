"""Ablations of the design choices DESIGN.md calls out.

* A1/A2 -- the two pruning mechanisms of the miner: section 4.1's
  1-extension pruning of ``Q`` and the lazy min-max bound evaluation.
  Both are result-preserving; the ablation quantifies their cost impact
  and asserts result equality.
* A3 -- the geometry of ``Prob``: box (axis-separable, default) vs disk
  (exact Euclidean).  The measures differ by a bounded constant factor,
  so the mined rankings are expected to agree closely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.trajpattern import TrajPatternMiner
from repro.experiments.datasets import make_engine, zebranet_dataset
from repro.experiments.fig4 import Fig4Config
from repro.uncertainty.gaussian import ProbModel


@dataclass
class PruningAblationRow:
    """One miner variant's cost profile."""

    variant: str
    wall_time_s: float
    candidates_evaluated: int
    final_q_size: int
    top_patterns: list[tuple[int, ...]]
    nm_values: list[float] = field(default_factory=list)
    omega: float = float("nan")


@dataclass
class PruningAblationResult:
    rows: list[PruningAblationRow] = field(default_factory=list)

    def results_identical(self) -> bool:
        """All variants must mine the same answer (they are result-preserving).

        The same top-k cells with bit-identical NM values, and the same
        final threshold ``omega``.
        """
        answers = [
            (list(zip(row.top_patterns, row.nm_values)), row.omega)
            for row in self.rows
        ]
        return all(answer == answers[0] for answer in answers)

    def render(self) -> str:
        lines = [
            "A1/A2: pruning ablation (identical results, different cost)",
            f"{'variant':<28}{'time (s)':>10}{'evaluated':>12}{'|Q| final':>12}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.variant:<28}{row.wall_time_s:>10.3f}"
                f"{row.candidates_evaluated:>12}{row.final_q_size:>12}"
            )
        lines.append(f"results identical: {self.results_identical()}")
        return "\n".join(lines)


def run_pruning_ablation(
    config: Fig4Config = Fig4Config(k=5, n_trajectories=25, n_ticks=40, target_cells=1024)
) -> PruningAblationResult:
    """Time the four on/off combinations of the two pruning mechanisms."""
    engine = config.make_engine()
    variants = [
        ("both prunings (default)", True, True),
        ("no 1-extension pruning", False, True),
        ("no bound pruning", True, False),
        ("no pruning at all", False, False),
    ]
    result = PruningAblationResult()
    for name, extension, bound in variants:
        t0 = time.perf_counter()
        mined = TrajPatternMiner(
            engine,
            k=config.k,
            max_length=config.trajpattern_max_length,
            use_extension_pruning=extension,
            use_bound_pruning=bound,
        ).mine()
        elapsed = time.perf_counter() - t0
        result.rows.append(
            PruningAblationRow(
                variant=name,
                wall_time_s=elapsed,
                candidates_evaluated=mined.stats.candidates_evaluated,
                final_q_size=mined.stats.final_q_size,
                top_patterns=[p.cells for p in mined.patterns],
                nm_values=list(mined.nm_values),
                omega=mined.omega,
            )
        )
    return result


@dataclass
class ProbModelAblationResult:
    box_top: list[tuple[int, ...]]
    disk_top: list[tuple[int, ...]]
    box_time_s: float
    disk_time_s: float

    def overlap(self) -> float:
        """Jaccard overlap of the two top-k sets."""
        a, b = set(self.box_top), set(self.disk_top)
        if not a and not b:
            return 1.0
        return len(a & b) / len(a | b)

    def render(self) -> str:
        return "\n".join(
            [
                "A3: Prob geometry ablation (box vs disk)",
                f"box time: {self.box_time_s:.3f}s, disk time: {self.disk_time_s:.3f}s",
                f"top-k Jaccard overlap: {self.overlap():.2f}",
            ]
        )


def run_prob_model_ablation(
    config: Fig4Config = Fig4Config(k=10, n_trajectories=25, n_ticks=40, target_cells=1024)
) -> ProbModelAblationResult:
    """Mine with box vs disk ``Prob`` and compare the top-k sets."""
    dataset = zebranet_dataset(
        n_trajectories=config.n_trajectories,
        n_ticks=config.n_ticks,
        sigma=config.sigma,
        seed=config.seed,
    )
    tops = {}
    times = {}
    for model in (ProbModel.BOX, ProbModel.DISK):
        engine = make_engine(
            dataset,
            cell_size=0.02,
            min_prob=config.min_prob,
            prob_model=model,
        )
        t0 = time.perf_counter()
        mined = TrajPatternMiner(engine, k=config.k).mine()
        times[model] = time.perf_counter() - t0
        tops[model] = [p.cells for p in mined.patterns]
    return ProbModelAblationResult(
        box_top=tops[ProbModel.BOX],
        disk_top=tops[ProbModel.DISK],
        box_time_s=times[ProbModel.BOX],
        disk_time_s=times[ProbModel.DISK],
    )
