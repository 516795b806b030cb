"""The remote pool kind of :class:`~repro.core.parallel.ParallelNMEngine`.

:class:`RemotePool` is the coordinator-side handle of a ``repro worker
--listen`` process (:mod:`repro.dist.worker`) reached over TCP, speaking
:mod:`repro.dist.wire`.  It exposes the same ``open`` / ``dispatch`` /
``collect`` / ``ping`` / ``close`` surface as the fork-worker
:class:`~repro.core.parallel.LocalPool`, so one coordinator deals spans
over any mix of the two and merges per-span results in global span order
-- which pool computed a span (or recomputed it after a failover) cannot
change a bit.  The engine imports this module only when a ``host:port``
pool is named.

Data never travels: the coordinator ships ``(store_hash, lo, hi)`` span
coordinates plus grid/config/kernel tag; every pool opens its local copy
of the ``.tjc`` store.  A pool whose store hash or Prob-kernel tag
differs refuses the handshake -- the two silent bit-identity killers are
loud protocol errors instead.
"""

from __future__ import annotations

import socket
from typing import Any, Sequence

from repro.core.engine import EngineConfig
from repro.core.parallel import (
    DEFAULT_CONNECT_TIMEOUT_S,
    DEFAULT_OP_TIMEOUT_S,
    PoolFailure,
)
from repro.dist import wire
from repro.geometry.grid import Grid
from repro.obs import tracing


class RemotePool:
    """A ``repro worker --listen`` pool reached over TCP."""

    kind = "remote"

    def __init__(
        self,
        name: str,
        address: tuple[str, int],
        *,
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
    ) -> None:
        self.name = name
        self.address = address
        self.op_timeout_s = op_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.spans: list[tuple[int, int]] = []
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_id = 0
        self._pending: list[tuple[int, int]] | None = None
        self._pending_id: int | None = None
        self._pending_op: str | None = None
        self.capabilities: tuple[str, ...] = ()

    # -- low-level round-trips --------------------------------------------

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
            self._reader = self._sock.makefile("rb")
        except OSError as exc:
            raise PoolFailure(self, f"cannot connect to {self.address}: {exc}") from exc

    def _send(self, request: dict, timeout: float) -> int:
        if self._sock is None:
            raise PoolFailure(self, "not connected")
        rid = self._next_id
        self._next_id += 1
        request = {"id": rid, **request}
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(wire.encode(request))
        except OSError as exc:
            raise PoolFailure(self, f"send failed: {exc}") from exc
        return rid

    def _recv(self, rid: int, timeout: float) -> dict:
        if self._sock is None:
            raise PoolFailure(self, "not connected")
        try:
            self._sock.settimeout(timeout)
            line = self._reader.readline(wire.MAX_LINE_BYTES + 1)
        except (OSError, ValueError) as exc:
            raise PoolFailure(self, f"recv failed: {exc}") from exc
        if not line:
            raise PoolFailure(self, "connection closed by worker")
        response = wire.decode_line(line)
        if response.get("id") != rid:
            raise PoolFailure(
                self, f"response id {response.get('id')!r} != request id {rid}"
            )
        if not response.get("ok"):
            detail = response.get("detail", response.get("error", "unknown error"))
            raise RuntimeError(f"pool {self.name!r}: {detail}")
        return response

    def _roundtrip(self, request: dict, timeout: float | None = None) -> dict:
        timeout = self.op_timeout_s if timeout is None else timeout
        rid = self._send(request, timeout)
        return self._recv(rid, timeout)

    # -- pool surface ------------------------------------------------------

    def hello(
        self,
        *,
        store_hash: str,
        grid: Grid,
        config: EngineConfig,
        kernel_tag: str,
        trace: tracing.SpanContext | None,
        metrics_enabled: bool,
    ) -> dict:
        self._connect()
        request = {
            "op": "hello",
            "version": wire.DIST_PROTOCOL_VERSION,
            "store_hash": store_hash,
            "grid": wire.grid_to_wire(grid),
            "config": wire.config_to_wire(config),
            "kernel_tag": kernel_tag,
            "metrics": metrics_enabled,
        }
        if trace is not None:
            request["trace"] = trace.to_wire()
        reply = self._roundtrip(request, timeout=self.connect_timeout_s)
        self.capabilities = tuple(reply.get("capabilities", ()))
        missing = [op for op in wire.DIST_OPS if op not in self.capabilities]
        if missing:
            raise RuntimeError(
                f"pool {self.name!r} lacks required ops: {missing}"
            )
        return reply

    def open(self, spans: Sequence[tuple[int, int]]) -> list[dict]:
        reply = self._roundtrip(
            {"op": "open", "spans": wire.spans_to_wire(spans)}
        )
        for span in spans:
            if span not in self.spans:
                self.spans.append(span)
        self.spans.sort()
        return reply["metas"]

    def dispatch(self, op: str, payload, spans: Sequence[tuple[int, int]]) -> None:
        request = {
            "op": op,
            "spans": wire.spans_to_wire(spans),
            **wire.SPAN_OP_CODECS[op].payload_to_wire(payload),
        }
        self._pending = list(spans)
        self._pending_op = op
        self._pending_id = self._send(request, self.op_timeout_s)

    def collect(self) -> dict[tuple[int, int], Any]:
        if self._pending is None:
            return {}
        reply = self._recv(self._pending_id, self.op_timeout_s)
        results = reply.get("results")
        if not isinstance(results, list) or len(results) != len(self._pending):
            raise PoolFailure(
                self, f"malformed results for op {self._pending_op!r}"
            )
        decode = wire.SPAN_OP_CODECS[self._pending_op].result_from_wire
        out = {span: decode(result) for span, result in zip(self._pending, results)}
        self._pending = None
        self._pending_id = None
        self._pending_op = None
        return out

    def ping(self, timeout: float = 5.0) -> bool:
        try:
            self._roundtrip({"op": "ping"}, timeout=timeout)
            return True
        except PoolFailure:
            return False

    def drain_trace_records(self) -> list:
        try:
            reply = self._roundtrip({"op": "obs_drain"}, timeout=10.0)
        except (PoolFailure, RuntimeError):
            return []
        records = reply.get("records", [])
        return records if isinstance(records, list) else []

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._roundtrip({"op": "close"}, timeout=5.0)
            except (PoolFailure, RuntimeError):
                pass
            try:
                self._reader.close()
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None
        self.spans = []
        self._pending = None
