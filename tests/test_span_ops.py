"""One span op vocabulary: the op table, the wire codecs and both pool kinds.

Every span-scoped op of the distributed protocol has exactly one entry in
:data:`repro.core.parallel.SPAN_OPS` (what it computes) and one in
:data:`repro.dist.wire.SPAN_OP_CODECS` (how it travels).  A fork-worker
:class:`LocalPool` and an in-process TCP :class:`WorkerPoolServer` must
then answer every op identically on the same span.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import kernels
from repro.core.engine import EngineConfig
from repro.core.parallel import SPAN_OPS, LocalPool, _WorkerInit, run_span_op
from repro.core.wildcards import Gap, GapPattern
from repro.core.pattern import TrajectoryPattern
from repro.dist import wire
from repro.dist.coordinator import RemotePool
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer, _Session
from repro.storage import open_store, write_store
from repro.testkit.datasets import seeded_dataset

SPAN = (2, 9)
SESSION_OPS = {"hello", "open", "ping", "obs_drain", "close"}
SPAN_SCOPED = [op for op in wire.DIST_OPS if op not in SESSION_OPS]


def test_every_span_op_has_one_table_entry_and_one_codec():
    assert len(set(wire.DIST_OPS)) == len(wire.DIST_OPS)
    assert SESSION_OPS <= set(wire.DIST_OPS)
    assert sorted(wire.SPAN_OP_CODECS) == sorted(SPAN_SCOPED)
    assert set(SPAN_SCOPED) <= set(SPAN_OPS)
    # The one table op that never crosses the wire: the parent collects
    # span indexes for the shared cache from local pools only.
    assert set(SPAN_OPS) - set(SPAN_SCOPED) == {"index_arrays"}


def test_unknown_span_op_is_rejected():
    with pytest.raises(ValueError, match="unknown span op 'nope'"):
        run_span_op(None, "nope")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    dataset = seeded_dataset(6, n_trajectories=12, n_ticks=20)
    path = str(tmp_path_factory.mktemp("span-ops") / "data.tjc")
    write_store(dataset, path)
    grid = dataset.make_grid(0.1)
    config = EngineConfig(delta=0.08, min_prob=1e-6)
    return path, grid, config


@pytest.fixture(scope="module")
def pools(store):
    path, grid, config = store
    local = LocalPool(
        "local-0",
        lambda span: _WorkerInit(grid=grid, config=config, store=(path, *span)),
    )
    server = WorkerPoolServer(WorkerPoolConfig(store_path=path, name="w0"))
    host, port = server.start()
    remote = RemotePool("remote-1", (host, port))
    try:
        with open_store(path) as s:
            store_hash = s.content_hash
        remote.hello(
            store_hash=store_hash,
            grid=grid,
            config=config,
            kernel_tag=kernels.prob_kernel_tag(config),
            trace=None,
            metrics_enabled=False,
        )
        [local_meta] = local.open([SPAN])
        [remote_meta] = remote.open([SPAN])
        assert local_meta == remote_meta
        yield local, remote, local_meta["active_cells"]
    finally:
        remote.close()
        local.close()
        server.stop()


def _payloads(cells):
    a, b, c = cells[:3]
    patterns = [(a,), (b,), (a, b), (a, b, c)]
    return {
        "nm_batch": patterns,
        "match_batch": patterns,
        "nm_per_traj": (a, b),
        "match_per_traj": (a, b),
        "singular_nm": None,
        "singular_match": None,
        "ext_tables": patterns[:2],
        "gap_nm": GapPattern(
            (TrajectoryPattern((a,)), TrajectoryPattern((b,))), (Gap(0, 2),)
        ),
        "best_window": ((a, b), 3),
        "stats": None,
        "obs_snapshot": None,
    }


def _run(pool, op, payload):
    pool.dispatch(op, payload, [SPAN])
    return pool.collect()[SPAN]


def test_local_and_remote_pools_answer_every_op_identically(pools):
    local, remote, cells = pools
    payloads = _payloads(cells)
    assert sorted(payloads) == sorted(SPAN_SCOPED)
    for op in SPAN_SCOPED:  # the same sequence on both, so stats agree too
        got_local = _run(local, op, payloads[op])
        got_remote = _run(remote, op, payloads[op])
        if op == "obs_snapshot":
            # Metric registries are per process; the engine counters are not.
            got_local = {k: v for k, v in got_local.items() if k != "metrics"}
            got_remote = {k: v for k, v in got_remote.items() if k != "metrics"}
        if isinstance(got_local, np.ndarray):
            assert got_local.dtype == got_remote.dtype == np.float64, op
            assert np.array_equal(got_local, got_remote), op
        else:
            assert got_local == got_remote, op


class TestSessionChecksWireInput:
    """The TCP session validates what arrives from the wire before the op table."""

    @pytest.fixture
    def session(self, store):
        path, grid, config = store
        server = WorkerPoolServer(WorkerPoolConfig(store_path=path, name="w0"))
        session = _Session(server)
        hello = {
            "id": 0,
            "op": "hello",
            "version": wire.DIST_PROTOCOL_VERSION,
            "store_hash": server.store.content_hash,
            "grid": wire.grid_to_wire(grid),
            "config": wire.config_to_wire(config),
            "kernel_tag": kernels.prob_kernel_tag(config),
        }
        assert self._send(session, hello)["ok"]
        assert self._send(session, {"id": 1, "op": "open", "spans": [list(SPAN)]})["ok"]
        yield session
        server.store.close()

    @staticmethod
    def _send(session, request: dict) -> dict:
        return session.handle_line(json.dumps(request).encode())

    def _error(self, session, **request) -> dict:
        reply = self._send(session, {"id": 7, "spans": [list(SPAN)], **request})
        assert reply["ok"] is False
        return reply

    def test_unknown_op(self, session):
        assert self._error(session, op="bogus")["error"] == "unknown_op"

    def test_span_never_opened(self, session):
        reply = self._error(session, op="singular_nm", spans=[[0, 1]])
        assert reply["error"] == "bad_request"
        assert "never opened" in reply["detail"]

    def test_open_span_outside_store(self, session):
        reply = self._error(session, op="open", spans=[[0, 999]])
        assert "outside store" in reply["detail"]

    @pytest.mark.parametrize(
        "traj, detail",
        [("3", "traj must be an integer"), (True, "traj must be an integer"),
         (99, "outside span"), (-1, "outside span")],
    )
    def test_best_window_traj(self, session, traj, detail):
        reply = self._error(session, op="best_window", cells=[0], traj=traj)
        assert reply["error"] == "bad_request"
        assert detail in reply["detail"]

    def test_malformed_patterns(self, session):
        reply = self._error(session, op="nm_batch", patterns=[[]])
        assert reply["error"] == "bad_request"
