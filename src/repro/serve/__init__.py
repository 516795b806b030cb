"""Online query serving for mined pattern libraries (``repro serve``).

This package is the system's *online* half: everything under
:mod:`repro.core` mines and scores patterns offline; ``repro.serve``
exposes the same measure engine and the pattern-augmented prediction of
paper section 6 as a long-running network service.

Pieces (bottom-up):

* :mod:`repro.serve.protocol` -- the newline-delimited-JSON request /
  response protocol and its validation;
* :mod:`repro.serve.batcher` -- the adaptive micro-batcher: concurrent
  requests coalesce into single :meth:`~repro.core.engine.NMEngine.nm_batch`
  calls, with deadline-aware admission control and load shedding;
* :mod:`repro.serve.snapshot` -- immutable versioned serving state
  (dataset + engine + pattern library) and the store that hot-swaps it;
* :mod:`repro.serve.server` -- the asyncio TCP server tying the above
  together with the observability layer;
* :mod:`repro.serve.loadgen` -- the open/closed-loop load generator
  behind ``repro loadgen``.

Naming note: :class:`repro.mobility.server.FleetTracker` is the *paper's*
dead-reckoning location tracker -- a simulation component, not a network
service.  This package is the only thing in the repository that serves
queries.
"""

from repro.serve.batcher import BatchStats, MicroBatcher, OverloadedError
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.serve.server import IngestConfig, PatternServer, ServeConfig
from repro.serve.snapshot import ServingSnapshot, SnapshotStore

__all__ = [
    "BatchStats",
    "IngestConfig",
    "LoadgenConfig",
    "MAX_LINE_BYTES",
    "MicroBatcher",
    "OverloadedError",
    "PatternServer",
    "ProtocolError",
    "ServeConfig",
    "ServingSnapshot",
    "SnapshotStore",
    "decode_line",
    "encode",
    "error_response",
    "ok_response",
    "run_loadgen",
]
