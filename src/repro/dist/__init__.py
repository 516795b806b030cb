"""Cross-machine mining and serving (``repro.dist``).

Single-box sharded mining (:mod:`repro.core.parallel`) and one
:class:`~repro.serve.server.PatternServer` replica promote onto sockets
here:

* :mod:`repro.dist.wire` -- the worker wire protocol: the NDJSON framing
  of :mod:`repro.serve.protocol` carrying the ``parallel`` worker op set,
  plus exact JSON codecs for grids, engine configs, extension tables and
  gap patterns (JSON round-trips float64 bit-exactly, which is what lets
  a socket hop preserve the 0-ULP merge contract);
* :mod:`repro.dist.worker` -- ``repro worker --listen``: a worker-pool
  process that opens its assigned ``.tjc`` spans *locally* (the
  coordinator ships ``(store_hash, lo, hi)`` + grid/config/kernel tag,
  never data) and answers pipelined ops;
* :mod:`repro.dist.coordinator` -- :class:`RemotePool`: the TCP pool kind
  of :class:`~repro.core.parallel.ParallelNMEngine`, which deals spans over
  any mix of local fork pools and remote pools, merges them with one set
  of exact-merge functions and re-dispatches a crashed or timed-out pool's
  spans to survivors with bit-identical results;
* :mod:`repro.dist.router` -- ``repro router``: a serving tier that fans
  client requests across N ``PatternServer`` replicas by least queue
  depth, broadcasts ``swap`` so every replica serves the same snapshot
  generation, and aggregates ``stats``.

See ``docs/DISTRIBUTED.md`` for the op catalogue and failure model.
"""

from repro.core.parallel import LocalPool, parse_pool_spec
from repro.dist.coordinator import RemotePool
from repro.dist.router import RouterConfig, PatternRouter, publish_snapshot
from repro.dist.wire import DIST_OPS, DIST_PROTOCOL_VERSION
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer

__all__ = [
    "DIST_OPS",
    "DIST_PROTOCOL_VERSION",
    "LocalPool",
    "PatternRouter",
    "RemotePool",
    "RouterConfig",
    "WorkerPoolConfig",
    "WorkerPoolServer",
    "parse_pool_spec",
    "publish_snapshot",
]
