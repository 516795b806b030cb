"""Mobility substrate: the location reporting scheme of section 3.1.

A server tracks mobile objects by *dead reckoning*: object and server share
a motion-prediction model, the object compares its true position with the
model's prediction every tick and uplinks a location report only when the
deviation exceeds the tolerable uncertainty distance ``U``.  The server's
snapshot estimate of the object is then a Gaussian centred on the model
prediction with ``sigma = U / c``.

* :mod:`~repro.mobility.models` -- the three prediction models of the
  Fig. 3 experiment: linear (LM [12]), linear Kalman filter (LKF [2]) and
  recursive motion function (RMF [11]).
* :mod:`~repro.mobility.reporting` -- the dead-reckoning channel: protocol
  simulation for one object, including lossy uplinks and mis-prediction
  accounting.
* :mod:`~repro.mobility.server` -- :class:`FleetTracker`, tracking a
  whole fleet into a :class:`~repro.trajectory.dataset.TrajectoryDataset`
  (a simulation component -- the *network* server lives in
  :mod:`repro.serve`).
* :mod:`~repro.mobility.objects` -- ground-truth path containers produced
  by the data generators.
"""

from repro.mobility.models import (
    KalmanModel,
    LinearModel,
    MotionModel,
    RecursiveMotionModel,
    make_model,
)
from repro.mobility.objects import GroundTruthPath
from repro.mobility.reporting import ReportingConfig, TrackingLog, dead_reckon
from repro.mobility.server import FleetTracker, track_fleet

__all__ = [
    "MotionModel",
    "LinearModel",
    "KalmanModel",
    "RecursiveMotionModel",
    "make_model",
    "GroundTruthPath",
    "ReportingConfig",
    "TrackingLog",
    "dead_reckon",
    "FleetTracker",
    "track_fleet",
]
