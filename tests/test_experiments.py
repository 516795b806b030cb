"""Smoke tests for the experiment harness at miniature scale.

The benchmarks exercise the experiments at meaningful sizes; these tests
only check that each harness runs end to end, returns a well-formed result
and renders a table.
"""

import pytest

from repro.datagen.bus import BusFleetConfig
from repro.experiments import (
    Fig3Config,
    Fig4Config,
    Table1Config,
    run_fig3,
    run_fig4a_k,
    run_fig4b_trajectories,
    run_fig4c_length,
    run_fig4d_grids,
    run_fig4e_delta,
    run_prob_model_ablation,
    run_pruning_ablation,
    run_table1,
)
from repro.experiments.ablations import PruningAblationResult, PruningAblationRow
from repro.experiments.datasets import (
    bus_fleet_paths,
    bus_velocity_dataset,
    grid_with_cells,
    zebranet_dataset,
)

TINY_FLEET = BusFleetConfig(n_routes=2, buses_per_route=2, n_days=2, n_ticks=40)
TINY_FIG4 = Fig4Config(k=3, n_trajectories=10, n_ticks=25, target_cells=400)


class TestDatasets:
    def test_bus_velocity_dataset_shape(self):
        paths = bus_fleet_paths(seed=1, config=TINY_FLEET)
        dataset = bus_velocity_dataset(paths, seed=1)
        assert len(dataset) == len(paths)
        assert dataset.metadata["kind"] == "velocity"

    def test_zebranet_dataset_sizing(self):
        dataset = zebranet_dataset(n_trajectories=13, n_ticks=20)
        assert len(dataset) == 13
        assert all(len(t) == 20 for t in dataset)

    def test_grid_with_cells_approximates_target(self):
        dataset = zebranet_dataset(n_trajectories=5, n_ticks=20)
        grid = grid_with_cells(dataset, 900)
        assert 600 <= grid.n_cells <= 1400

    def test_grid_with_cells_validation(self):
        dataset = zebranet_dataset(n_trajectories=5, n_ticks=20)
        with pytest.raises(ValueError):
            grid_with_cells(dataset, 0)


class TestTable1:
    def test_runs_and_renders(self):
        config = Table1Config(k=10, max_length=4, fleet=TINY_FLEET)
        result = run_table1(config)
        assert result.nm_mean_length >= 1.0
        assert result.match_mean_length >= 1.0
        text = result.render()
        assert "match" in text and "NM" in text

    def test_nm_patterns_at_least_as_long(self):
        """The T1 claim, at miniature scale."""
        config = Table1Config(k=10, max_length=4, fleet=TINY_FLEET)
        result = run_table1(config)
        assert result.nm_mean_length >= result.match_mean_length


class TestFig3:
    def test_runs_and_renders(self):
        config = Fig3Config(
            k=10, max_length=5, fleet=TINY_FLEET, models=("lm",)
        )
        result = run_fig3(config)
        assert len(result.rows) == 2  # one model x two measures
        assert {row.measure for row in result.rows} == {"nm", "match"}
        assert result.reduction("lm", "nm") <= 1.0
        assert "reduction" in result.render()

    def test_unknown_row_raises(self):
        config = Fig3Config(
            k=10, max_length=5, fleet=TINY_FLEET, models=("lm",)
        )
        result = run_fig3(config)
        with pytest.raises(KeyError):
            result.reduction("lm", "support")


class TestFig4:
    def test_fig4a_shape(self):
        result = run_fig4a_k(TINY_FIG4, ks=(2, 3), with_pb=True)
        assert result.xs() == [2, 3]
        assert len(result.trajpattern_series()) == 2
        assert len(result.pb_series()) == 2
        assert all(t > 0 for t in result.trajpattern_series())
        assert "Fig. 4(a)" in result.render()

    def test_fig4a_without_pb(self):
        result = run_fig4a_k(TINY_FIG4, ks=(2,), with_pb=False)
        assert result.pb_series() == []
        assert "-" in result.render()

    def test_fig4b_shape(self):
        result = run_fig4b_trajectories(TINY_FIG4, sizes=(8, 12), with_pb=False)
        assert result.xs() == [8, 12]
        assert all(t > 0 for t in result.trajpattern_series())

    def test_fig4c_shape(self):
        result = run_fig4c_length(TINY_FIG4, lengths=(15, 25), with_pb=False)
        assert result.xs() == [15, 25]

    def test_fig4d_reports_active_cells(self):
        result = run_fig4d_grids(TINY_FIG4, grid_counts=(100, 400), with_pb=False)
        actives = [p.extra["active_cells"] for p in result.points]
        assert actives[1] >= actives[0]

    def test_fig4e_reports_groups(self):
        result = run_fig4e_delta(TINY_FIG4, delta_factors=(1.0, 3.0))
        counts = [p.extra["n_groups"] for p in result.points]
        assert all(c >= 1 for c in counts)
        # More indifference => no more groups than before (weak check at
        # tiny scale: non-strict).
        assert counts[-1] <= counts[0]


class TestAblations:
    def test_pruning_ablation_result_preserving(self):
        result = run_pruning_ablation(TINY_FIG4)
        assert len(result.rows) == 4
        assert result.results_identical()
        assert all(len(row.nm_values) == TINY_FIG4.k for row in result.rows)
        assert "results identical: True" in result.render()

    def test_results_identical_compares_nm_and_omega(self):
        def row(cells, nms, omega):
            return PruningAblationRow("v", 0.0, 0, 0, cells, nms, omega)

        same = row([(1,), (2, 3)], [-1.0, -2.0], -2.0)
        assert PruningAblationResult([same, same]).results_identical()
        for other in (
            row([(1,), (2, 4)], [-1.0, -2.0], -2.0),  # cells differ
            row([(1,), (2, 3)], [-1.0, -2.0000000000000004], -2.0),  # one ULP
            row([(1,), (2, 3)], [-1.0, -2.0], -2.5),  # omega differs
        ):
            assert not PruningAblationResult([same, other]).results_identical()

    def test_prob_model_ablation_overlap(self):
        result = run_prob_model_ablation(TINY_FIG4)
        assert 0.0 <= result.overlap() <= 1.0
        assert result.overlap() >= 0.5  # box vs disk rank very similarly
        assert "box" in result.render()
