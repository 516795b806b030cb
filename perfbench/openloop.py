"""The benchmark's own NDJSON client and open-loop load driver.

Requests follow a fixed schedule (``rate`` per second from a start time),
regardless of how fast the server answers, over at most ``nproc``
pipelined connections.  Each request's latency is measured from when it
was *due*, not from when it was written: if the driver itself falls
behind, the delay lands in the latencies instead of disappearing, and the
driver reports how late it ran (``sent - due``).

The client speaks the wire format with plain ``json`` so the program's own
protocol code stays out of the driver.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass, field

LINE_LIMIT = 4 << 20


class Client:
    """Pipelined NDJSON connections; responses correlate by ``id``."""

    def __init__(self) -> None:
        self._conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._readers: list[asyncio.Task] = []
        self._waiting: dict[int, object] = {}
        self._next_id = 0

    async def connect(self, host: str, port: int, n: int) -> None:
        for _ in range(n):
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            self._conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic_ns()
            response = json.loads(line)
            callback = self._waiting.pop(response.get("id"), None)
            if callback is not None:
                callback(response, now)

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def expect(self, request_id: int, callback) -> None:
        """Call ``callback(response, receive_ns)`` when ``request_id`` answers."""
        self._waiting[request_id] = callback

    def write(self, conn: int, data: bytes) -> None:
        self._conns[conn][1].write(data)

    async def call(self, request: dict, conn: int = 0) -> tuple[dict, int, int]:
        """One request/response; returns ``(response, sent_ns, received_ns)``."""
        future = asyncio.get_running_loop().create_future()
        request = dict(request, id=self.new_id())
        self.expect(request["id"], lambda r, t: future.set_result((r, t)))
        sent = time.monotonic_ns()
        self.write(conn, (json.dumps(request) + "\n").encode())
        response, received = await future
        return response, sent, received

    async def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
        for _, writer in self._conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        self._conns.clear()
        self._readers.clear()


@dataclass
class Phase:
    """Timings of one open-loop phase (``*_ns`` on ``time.monotonic_ns``)."""

    due: list[int]
    sent: list[int] = field(default_factory=list)
    done: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    kept: dict[int, list[float]] = field(default_factory=dict)

    def latencies_ms(self, indices=None) -> list[float]:
        """Due-to-answer times of successful requests."""
        indices = range(len(self.due)) if indices is None else indices
        return [
            (self.done[i] - self.due[i]) / 1e6 for i in indices if self.ok[i]
        ]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


async def open_loop(
    client: Client,
    rate: float,
    seconds: float,
    line_for,
    conns: tuple[int, ...],
    keep_every: int = 0,
    grace_s: float = 30.0,
) -> Phase:
    """Send ``rate * seconds`` requests on schedule; wait for every answer.

    ``line_for(request_id, index)`` returns one request line.  Requests are
    dealt round-robin over ``conns``.  With ``keep_every`` set, the
    ``values`` of every ``keep_every``-th answer are kept (by index) for
    the output check.  A request unanswered ``grace_s`` after the last one
    was due counts as failed.
    """
    n = max(1, int(rate * seconds))
    start = time.monotonic_ns() + 5_000_000
    interval = 1e9 / rate
    phase = Phase([start + int(i * interval) for i in range(n)])
    phase.sent = [0] * n
    phase.done = [0] * n
    phase.ok = [False] * n
    remaining = [n]
    finished = asyncio.Event()

    def make_callback(i: int):
        def on_response(response: dict, received: int) -> None:
            phase.done[i] = received
            phase.ok[i] = response.get("ok") is True
            if keep_every and i % keep_every == 0 and phase.ok[i]:
                phase.kept[i] = response.get("values")
            remaining[0] -= 1
            if not remaining[0]:
                finished.set()

        return on_response

    # The driver's own garbage collector would stall the schedule and land
    # in the latencies; the per-request garbage here is acyclic anyway.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        await _send_schedule(client, phase, line_for, conns, make_callback)
        try:
            await asyncio.wait_for(finished.wait(), grace_s)
        except asyncio.TimeoutError:
            pass
    finally:
        if gc_was_enabled:
            gc.enable()
    return phase


async def _send_schedule(client, phase, line_for, conns, make_callback) -> None:
    n = len(phase.due)
    cursor = 0
    pending: dict[int, list[bytes]] = {c: [] for c in conns}
    while cursor < n:
        now = time.monotonic_ns()
        if phase.due[cursor] > now:
            await asyncio.sleep((phase.due[cursor] - now) / 1e9)
            now = time.monotonic_ns()
        # Everything due by now goes out in one write per connection.
        while cursor < n and phase.due[cursor] <= now:
            request_id = client.new_id()
            client.expect(request_id, make_callback(cursor))
            pending[conns[cursor % len(conns)]].append(line_for(request_id, cursor))
            phase.sent[cursor] = now
            cursor += 1
        for conn, lines in pending.items():
            if lines:
                client.write(conn, b"".join(lines))
                lines.clear()
