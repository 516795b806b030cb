"""Tests for fleet-level tracking."""

import numpy as np
import pytest

from repro.mobility.models import KalmanModel, LinearModel
from repro.mobility.objects import GroundTruthPath
from repro.mobility.reporting import ReportingConfig
from repro.mobility.server import FleetTracker, track_fleet


@pytest.fixture
def paths(rng):
    out = []
    for i in range(5):
        start = rng.uniform(0, 1, 2)
        heading = rng.uniform(0, 2 * np.pi)
        steps = 0.02 * np.column_stack(
            [np.cos(heading + 0.1 * np.arange(15)), np.sin(heading + 0.1 * np.arange(15))]
        )
        out.append(
            GroundTruthPath(
                start + np.cumsum(steps, axis=0), object_id=f"p{i}", label="fleet"
            )
        )
    return out


CONFIG = ReportingConfig(uncertainty=0.02, confidence_c=2.0)


class TestTrackFleet:
    def test_one_log_per_path(self, paths):
        result = track_fleet(paths, LinearModel, CONFIG)
        assert len(result.logs) == len(paths)
        assert result.logs[0].object_id == "p0"
        assert result.logs[0].label == "fleet"

    def test_total_mispredictions(self, paths):
        result = track_fleet(paths, LinearModel, CONFIG)
        assert result.total_mispredictions == sum(
            log.n_mispredictions for log in result.logs
        )

    def test_misprediction_rate_bounds(self, paths):
        result = track_fleet(paths, LinearModel, CONFIG)
        assert 0.0 <= result.misprediction_rate() <= 1.0

    def test_to_dataset(self, paths):
        result = track_fleet(paths, LinearModel, CONFIG)
        dataset = result.to_dataset()
        assert len(dataset) == len(paths)
        assert dataset.metadata["sigma"] == CONFIG.sigma
        assert all(len(t) == len(p) for t, p in zip(dataset, paths))

    def test_fresh_model_per_object(self, paths):
        """Tracking must not leak state across objects: tracking objects
        one by one gives the same logs as tracking the fleet."""
        fleet = track_fleet(paths, KalmanModel, CONFIG)
        for path, log in zip(paths, fleet.logs):
            solo = track_fleet([path], KalmanModel, CONFIG)
            assert np.allclose(solo.logs[0].estimates, log.estimates)

    def test_empty_fleet(self):
        result = track_fleet([], LinearModel, CONFIG)
        assert result.total_mispredictions == 0
        assert result.misprediction_rate() == 0.0

    def test_tracker_class_equivalent(self, paths):
        a = FleetTracker(LinearModel, CONFIG).track(paths)
        b = track_fleet(paths, LinearModel, CONFIG)
        assert a.total_mispredictions == b.total_mispredictions
