"""Fleet-level tracking: ground-truth paths -> uncertain trajectory dataset.

:class:`FleetTracker` runs the dead-reckoning protocol of
:mod:`repro.mobility.reporting` for every object of a fleet and assembles
the server-side view into the :class:`~repro.trajectory.dataset.TrajectoryDataset`
that the miner consumes, together with the per-object mis-prediction
accounting the Fig. 3 experiment needs.

Naming note: this is the *paper's* "server" -- the simulated tracking
party of the section 3.1 reporting scheme, a batch simulation component
with no network surface, not the network service in :mod:`repro.serve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.mobility.models import MotionModel
from repro.mobility.objects import GroundTruthPath
from repro.mobility.reporting import ReportingConfig, TrackingLog, dead_reckon
from repro.trajectory.dataset import TrajectoryDataset


@dataclass
class FleetTrackingResult:
    """Everything the server learned about a fleet."""

    logs: list[TrackingLog]
    config: ReportingConfig

    @property
    def total_mispredictions(self) -> int:
        return sum(log.n_mispredictions for log in self.logs)

    def misprediction_rate(self) -> float:
        """Uplink attempts per tracked tick (excluding the handshake tick)."""
        ticks = sum(len(log.estimates) - 1 for log in self.logs)
        if ticks == 0:
            return 0.0
        return self.total_mispredictions / ticks

    def to_dataset(self, interpolated: bool = False) -> TrajectoryDataset:
        """Server-side location trajectories as a mining dataset.

        ``interpolated`` selects the offline report-interpolation view
        (the paper's mining preprocessing) over the live estimates.
        """
        if interpolated:
            trajectories = [log.to_interpolated_trajectory() for log in self.logs]
        else:
            trajectories = [log.to_trajectory() for log in self.logs]
        return TrajectoryDataset(
            trajectories,
            metadata={
                "kind": "location",
                "sigma": self.config.sigma,
                "uncertainty": self.config.uncertainty,
                "interpolated": interpolated,
            },
        )


class FleetTracker:
    """Tracks a fleet of objects with one motion-model family.

    This simulates the paper's tracking server over a whole fleet; it is
    not a network server (that is :class:`repro.serve.PatternServer`).

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh model per object (e.g.
        ``KalmanModel`` or ``lambda: make_model("rmf")``).
    config:
        Reporting protocol parameters shared by the fleet.
    """

    def __init__(
        self, model_factory: Callable[[], MotionModel], config: ReportingConfig
    ) -> None:
        self.model_factory = model_factory
        self.config = config

    def track(
        self,
        paths: Sequence[GroundTruthPath],
        rng: np.random.Generator | None = None,
        override_prediction=None,
    ) -> FleetTrackingResult:
        """Dead-reckon every path; see :func:`repro.mobility.reporting.dead_reckon`."""
        logs = [
            dead_reckon(
                path,
                self.model_factory(),
                self.config,
                rng=rng,
                override_prediction=override_prediction,
            )
            for path in paths
        ]
        return FleetTrackingResult(logs=logs, config=self.config)


def track_fleet(
    paths: Sequence[GroundTruthPath],
    model_factory: Callable[[], MotionModel],
    config: ReportingConfig,
    rng: np.random.Generator | None = None,
) -> FleetTrackingResult:
    """One-call convenience wrapper around :class:`FleetTracker`."""
    return FleetTracker(model_factory, config).track(paths, rng=rng)
