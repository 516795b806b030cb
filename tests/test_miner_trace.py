"""Tests for the miner's per-iteration introspection trace."""

import math

import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.trajpattern import PHASES, TrajPatternMiner
from repro.experiments.datasets import zebranet_dataset
from repro.obs import report, tracing


@pytest.fixture
def traced(small_engine):
    return TrajPatternMiner(small_engine, k=8, max_length=3).mine()


class TestIterationTrace:
    def test_one_entry_per_iteration(self, traced):
        assert len(traced.stats.trace) == traced.stats.iterations

    def test_iterations_numbered(self, traced):
        assert [t.iteration for t in traced.stats.trace] == list(
            range(1, traced.stats.iterations + 1)
        )

    def test_omega_non_decreasing(self, traced):
        omegas = [t.omega for t in traced.stats.trace]
        assert all(b >= a for a, b in zip(omegas, omegas[1:]))
        assert all(math.isfinite(w) for w in omegas)

    def test_final_omega_matches_result(self, traced):
        assert traced.stats.trace[-1].omega == traced.omega

    def test_per_iteration_counts_sum_to_totals(self, traced, small_engine):
        # Seeding evaluates every singular pattern before iteration 1.
        seeded = len(small_engine.active_cells)
        per_iteration = sum(t.candidates_evaluated for t in traced.stats.trace)
        assert seeded + per_iteration == traced.stats.candidates_evaluated
        assert (
            sum(t.patterns_pruned for t in traced.stats.trace)
            == traced.stats.patterns_pruned
        )

    def test_high_set_never_below_k_when_possible(self, traced):
        # After omega settles, the high set holds at least k members
        # (ties may push it above).
        assert traced.stats.trace[-1].n_high >= len(traced.patterns)

    def test_book_sizes_reported(self, traced):
        last = traced.stats.trace[-1]
        assert last.n_exact + last.n_bounded == traced.stats.final_q_size


class TestPhaseTimers:
    """The always-on phase timers account for the mine's wall time."""

    @pytest.fixture(scope="class")
    def mined(self):
        dataset = zebranet_dataset(n_trajectories=40, n_ticks=30, seed=3)
        engine = NMEngine(
            dataset, dataset.make_grid(0.02), EngineConfig(delta=0.02, min_prob=1e-4)
        )
        return TrajPatternMiner(engine, k=8).mine()

    def test_phases_cover_the_wall_time(self, mined):
        stats = mined.stats
        total = sum(stats.phase_time_s(phase) for phase in PHASES)
        assert total <= stats.wall_time_s
        assert total >= 0.9 * stats.wall_time_s

    def test_properties_view_the_registry(self, mined):
        stats = mined.stats
        assert [
            stats.generate_time_s,
            stats.prune_1ext_time_s,
            stats.partners_time_s,
            stats.eval_time_s,
            stats.topk_time_s,
        ] == [stats.phase_time_s(phase) for phase in PHASES]
        assert all(stats.phase_time_s(phase) > 0 for phase in PHASES)
        with pytest.raises(AttributeError):
            stats.generate_time_s = 1.0

    def test_phase_spans_nest_under_iterations(self, small_engine, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        tracing.configure_tracing(path=trace_file)
        try:
            TrajPatternMiner(small_engine, k=5, max_length=3).mine()
        finally:
            tracing.disable_tracing()
        spans = report.load_trace(trace_file)
        iterations = {s["span"] for s in spans if s["name"] == "miner.iteration"}
        for phase in PHASES:
            inside = [
                s for s in spans
                if s["name"] == f"miner.{phase}" and s["parent"] in iterations
            ]
            assert inside, phase
