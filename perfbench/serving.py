"""The serving workload, ``ingest-live``: writes beside reads.

``repro serve --ingest`` runs as its own process, booted from
dead-reckoned zebra reports, so the server and this load generator each
get one of the host's two cores.  Waves of reports arrive on a fixed
schedule on one connection while open-loop ``score`` reads arrive on the
other.  Every wave is an append + evict + warm re-mine + snapshot swap on the single
evaluation thread that also answers the reads.

A traced run starts the server through ``perfbench/serve_entry.py``, which
installs the span wrappers before handing over to ``repro.cli.main``.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean as mean, median

import numpy as np

from perfbench import checks, spans
from perfbench.common import ROOT, Result, child_env
from perfbench.openloop import Client, Phase, open_loop

#: Requests carry a generous deadline: a fold may hold the evaluation
#: thread for a second, and a shed read would be a failed operation.
TIMEOUT_MS = 30_000
#: Top-k the ingest server re-mines on every wave.
INGEST_K = 8
#: Independent report streams per untraced run, one server each.  How long
#: a fold takes depends on the stream (on how many iterations its warm
#: re-mines need), so one stream per run would make the run-to-run spread
#: mostly a matter of which stream a seed drew.
STREAMS = 4
READY = re.compile(r"serving snapshot \S+ on (\S+):(\d+) ")


@dataclass(frozen=True)
class IngestSpec:
    base_objects: int
    wave_size: int
    wave_period_s: float
    n_ticks: int
    rate: float  # open-loop reads/s beside the waves
    window: int


SPECS = {
    "ingest-live": IngestSpec(
        150, 10, wave_period_s=2.0, n_ticks=60, rate=200.0, window=150
    ),
}

SMOKE = {
    "ingest-live": IngestSpec(
        20, 5, wave_period_s=0.1, n_ticks=15, rate=500.0, window=20
    ),
}


# -- server processes --------------------------------------------------------


class Server:
    """One ``repro serve`` process, spawned and timed to readiness."""

    def __init__(self, snapshot_dir: Path, flags: list[str], log: Path,
                 spans_out: Path | None = None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_entry.py"),
                   str(spans_out)]
        cmd += ["serve", str(snapshot_dir), "--port", "0", *flags]
        self.log = log
        self._log_fh = open(log, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self._log_fh, stderr=subprocess.STDOUT,
            env=child_env(), cwd=str(ROOT),
        )
        self.host, self.port = self._wait_ready()
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, timeout_s: float = 120.0) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            match = READY.search(self.log.read_text(encoding="utf-8"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.proc.kill()
        self.stop()
        raise RuntimeError(
            f"server did not become ready:\n{self.log.read_text(encoding='utf-8')}"
        )

    def stop(self, timeout_s: float = 30.0) -> None:
        """Wait for a shut-down server to exit; kill it if it does not."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log_fh.close()


class Servers:
    """Every server process one run starts; :meth:`close` ends any left."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self._started: list[Server] = []

    def spawn(self, snapshot_dir: Path, flags: list[str], name: str,
              spans_out: Path | None = None) -> Server:
        server = Server(snapshot_dir, flags, self.run_dir / f"{name}.log", spans_out)
        self._started.append(server)
        return server

    def close(self) -> None:
        for server in self._started:
            if server.proc.poll() is None:
                server.proc.kill()
            server.stop()


async def _shutdown(server: Server, client: Client | None = None) -> None:
    own = client is None
    if own:
        client = Client()
        await client.connect(server.host, server.port, 1)
    try:
        await client.call({"op": "shutdown"})
    finally:
        if own:
            await client.close()
    server.stop()


def _write_snapshot(path: Path, dataset, serve_json: dict) -> Path:
    from repro.trajectory.io import save_dataset_jsonl

    path.mkdir(parents=True, exist_ok=True)
    save_dataset_jsonl(dataset, path / "dataset.jsonl")
    (path / "serve.json").write_text(json.dumps(serve_json), encoding="utf-8")
    return path


def _score_line(pool: list[list[int]]):
    template = '{"op":"score","id":%d,"patterns":[[%d,%d,%d]],"timeout_ms":%d}\n'

    def line_for(request_id: int, index: int) -> bytes:
        a, b, c = pool[index % len(pool)]
        return (template % (request_id, a, b, c, TIMEOUT_MS)).encode()

    return line_for


async def _pattern_pool(client: Client, seed: int, n: int = 4096):
    """Length-3 patterns over the snapshot's sampled active cells."""
    describe, _, _ = await client.call({"op": "describe"})
    cells = describe["sample_active_cells"]
    rng = np.random.default_rng(seed)
    return [[int(c) for c in rng.choice(cells, size=3)] for _ in range(n)]


def _server_layers(m: dict, recorded: dict, lo: int, hi: int) -> None:
    """Per-call protocol/batcher figures from a traced server's spans."""
    window = spans.self_times(recorded, lo, hi)

    def per_call_us(name: str) -> float:
        entry = window.get(name)
        return entry["total_ns"] / entry["count"] / 1e3 if entry else 0.0

    m["protocol.decode_us"] = per_call_us("protocol.decode")
    m["protocol.parse_us"] = per_call_us("protocol.parse")
    m["protocol.encode_us"] = per_call_us("protocol.encode")
    m["serve.eval_us_per_batch"] = per_call_us("engine.nm_batch")
    m["batcher.submit_us"] = per_call_us("batcher.submit")


# -- ingest-live -------------------------------------------------------------


@dataclass
class StreamRun:
    """One stream on one server: its reads, measured waves and stats."""

    server: Server
    reads: Phase
    acks: list[tuple[int, int, dict]]  # (sent_ns, received_ns, response)
    stats: dict

    def blocked(self) -> list[int]:
        """Reads that were due while a measured wave was being folded."""
        return [
            i for i, due in enumerate(self.reads.due)
            if any(s <= due < r for s, r, _ in self.acks)
        ]


async def _play_stream(spec: IngestSpec, stream_seed: int, measure_s: float,
                   servers: Servers, result: Result, name: str,
                   spans_out: Path | None = None) -> StreamRun:
    """Boot a server on one report stream, fold one warm-up wave, then
    measure reads beside waves sent on schedule; check the last top-k."""
    from benchmarks.ingest_driver import build_reports
    from repro.core.engine import NMEngine
    from repro.core.pattern import TrajectoryPattern
    from repro.core.trajpattern import TrajPatternMiner
    from repro.mobility.reporting import trajectory_from_report
    from repro.serve import ServingSnapshot
    from repro.trajectory.dataset import TrajectoryDataset

    n_waves = 1 + max(1, int(measure_s / spec.wave_period_s - 0.25))
    total = spec.base_objects + n_waves * spec.wave_size
    # One JSON round trip, as on the wire, so the reference mine below sees
    # bit-identical floats to the server's.
    reports = json.loads(
        json.dumps(build_reports(total, spec.n_ticks, stream_seed))
    )
    waves = [
        reports[spec.base_objects + i * spec.wave_size:
                spec.base_objects + (i + 1) * spec.wave_size]
        for i in range(n_waves)
    ]
    base = TrajectoryDataset(
        [trajectory_from_report(r) for r in reports[: spec.base_objects]]
    )
    # cell_size = delta = 0.02 pinned: see perfbench/README.md ("Why the
    # ingest grid is pinned").
    snap = _write_snapshot(
        servers.run_dir / f"snap-{name}", base, {"cell_size": 0.02, "delta": 0.02}
    )
    flags = ["--ingest", "--ingest-k", str(INGEST_K),
             "--ingest-window", str(spec.window)]
    server = servers.spawn(snap, flags, name, spans_out)
    client = Client()
    try:
        await client.connect(server.host, server.port, 2)
        pool = await _pattern_pool(client, stream_seed)
        line_for = _score_line(pool)
        # Warm-up: reads (a sample of them kept for the output check), then
        # the first fold on a fresh server, which runs slower while the
        # server's caches fill.
        sample = await open_loop(client, spec.rate, 0.5, line_for, (0,), keep_every=7)
        warm, _, _ = await client.call({"op": "ingest", "reports": waves[0]}, conn=1)
        acks: list[tuple[int, int, dict]] = []

        async def send_waves(start: float) -> None:
            for i, wave in enumerate(waves[1:]):
                delay = start + (i + 0.25) * spec.wave_period_s - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                response, sent, received = await client.call(
                    {"op": "ingest", "reports": wave}, conn=1
                )
                acks.append((sent, received, response))

        reads, _ = await asyncio.gather(
            open_loop(client, spec.rate, measure_s, line_for, (0,)),
            send_waves(time.perf_counter()),
        )
        stats, _, _ = await client.call({"op": "stats"})
        await _shutdown(server, client)
    finally:
        await client.close()

    responses = [warm] + [response for _, _, response in acks]
    result.attempted += len(reads.due) + len(responses)
    result.failed += reads.failed
    for i, response in enumerate(responses):
        if not (response.get("ok") and response.get("republished")
                and response.get("generation") == i + 1):
            result.failed += 1
            result.check(f"{name}: wave {i} did not republish: {response}")
    # Output checks: the sampled warm-up reads (answered before any wave)
    # equal a local engine's nm_batch on the boot snapshot, and the last
    # republished top-k equals a cold mine over the final window, on the
    # snapshot's grid and engine config.
    boot = ServingSnapshot.load(snap)
    expected = {
        i: [float(v) for v in boot.engine.nm_batch(
            [TrajectoryPattern(tuple(pool[i % len(pool)]))]
        )]
        for i in sample.kept
    }
    result.check(checks.score_sample_equal(sample.kept, expected), name)
    final = TrajectoryDataset(
        [trajectory_from_report(r) for r in reports][-spec.window:]
    )
    cold = TrajPatternMiner(
        NMEngine(final, boot.grid, boot.engine.config), k=INGEST_K
    ).mine()
    want = [(tuple(int(c) for c in p.cells), float(nm)) for p, nm in cold.as_pairs()]
    got = [(tuple(e["cells"]), float(e["nm"])) for e in responses[-1].get("top_k", [])]
    result.check(checks.republish_equal(got, want), name)
    return StreamRun(server, reads, acks, stats["stats"])


async def _ingest_live(spec: IngestSpec, seed: int, seconds: float, trace: bool,
                       servers: Servers, result: Result) -> None:
    m = result.metrics
    if trace:
        # One stream twice: on a plain server (the overhead reference) and
        # on a traced one.
        plain = await _play_stream(spec, seed * STREAMS, seconds / 2, servers,
                               result, "plain")
        spans_out = servers.run_dir / "spans.json"
        runs = [await _play_stream(spec, seed * STREAMS, seconds / 2, servers,
                                   result, "traced", spans_out)]
    else:
        runs = [
            await _play_stream(spec, seed * STREAMS + i, seconds / STREAMS, servers,
                           result, f"stream{i}")
            for i in range(STREAMS)
        ]

    lat = [x for sr in runs for x in sr.reads.latencies_ms()]
    blocked = [(sr, sr.blocked()) for sr in runs]
    blocked_lat = [x for sr, b in blocked for x in sr.reads.latencies_ms(b)]
    republish = [(r - s) / 1e9 for sr in runs for s, r, _ in sr.acks]
    m["setup_s"] = median(sr.server.setup_s for sr in runs)
    m["latency_p50_ms"] = median(lat)
    # The tail is the slow mode of a bimodal distribution: the ~30% of
    # reads due during a fold wait for the rest of it.  Its median tracks
    # the fold length.  A pooled p90-p99 falls part-way into that mode and
    # moves with fold length and with how many reads the folds hold up
    # together: over seven seeds p90, p95 and p99 spread 0.40, 0.27 and
    # 0.34 of their medians, this 0.17, the same as the republish time.
    m["latency_tail_ms"] = median(blocked_lat)
    # Mean, not median: a wave re-mines in two iterations or in four
    # (~0.35 s or ~0.7 s), and a median jumps between the two as a run's
    # mix of waves crosses one half.
    m["update_s"] = mean(republish)
    m["throughput_per_s"] = spec.wave_size * len(republish) / sum(republish)
    m["peak_rss_mb"] = max(sr.stats["rss_peak_bytes"] for sr in runs) / 2**20
    batches = sum(sr.stats["batcher"]["batches"] for sr in runs)
    m["batcher.mean_batch"] = sum(
        sr.stats["batcher"]["mean_batch_size"] * sr.stats["batcher"]["batches"]
        for sr in runs
    ) / batches
    m["batcher.delay_close_share"] = sum(
        sr.stats["batcher"]["closed_on"]["delay"] for sr in runs
    ) / batches
    m["driver.late_p99_ms"] = float(np.percentile(
        [(s - d) / 1e6 for sr in runs
         for s, d in zip(sr.reads.sent, sr.reads.due)], 99
    ))
    m["driver.samples"] = len(lat)
    m["ingest.mine_iterations"] = mean(
        r.get("mine_iterations", 0) for sr in runs for _, _, r in sr.acks
    )
    m["ingest.reads_blocked_share"] = sum(len(b) for _, b in blocked) / sum(
        len(sr.reads.due) for sr in runs
    )
    m["ingest.blocked_read_p50_ms"] = m["latency_tail_ms"]

    if trace:
        traced = runs[0]
        recorded = spans.load(str(spans_out))
        _server_layers(m, recorded, traced.reads.due[0], max(traced.reads.done))
        windows = [(s, r) for s, r, _ in traced.acks]

        def per_wave(name: str, field: str) -> float:
            return mean(
                spans.self_times(recorded, s, r).get(name, {}).get(field, 0)
                for s, r in windows
            ) / 1e9

        m["incremental.append_s"] = per_wave("incremental.append", "self_ns")
        m["incremental.evict_s"] = per_wave("incremental.evict", "total_ns")
        m["ingest.mine_s"] = per_wave("miner.mine", "total_ns")
        m["miner.self_s"] = per_wave("miner.mine", "self_ns")
        m["snapshot.swap_s"] = per_wave("snapshot.swap", "total_ns")
        loads = spans.intervals(recorded, "snapshot.load")
        m["snapshot.load_s"] = (loads[0][1] - loads[0][0]) / 1e9
        # The fold's top-level steps, each on the evaluation thread or the
        # loop, against the wave's wall (the rest is wire and queueing).
        roots = ("incremental.append", "miner.mine", "engine.index_build",
                 "snapshot.swap")
        m["trace.attributed_pct"] = 100.0 * sum(
            spans.root_total_ns(recorded, roots, s, r) for s, r in windows
        ) / sum(r - s for s, r in windows)
        untraced = mean((r - s) / 1e9 for s, r, _ in plain.acks)
        m["trace.overhead_pct"] = 100.0 * (mean(republish) / untraced - 1.0)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        run_dir: Path) -> Result:
    spec = (SMOKE if smoke else SPECS)[name]
    result = Result()
    servers = Servers(run_dir)
    try:
        asyncio.run(_ingest_live(spec, seed, seconds, trace, servers, result))
    finally:
        servers.close()
    return result
