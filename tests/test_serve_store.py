"""ServingSnapshot loading from .tjc stores: sniffing, precedence, serve.json."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.snapshot import ServingSnapshot
from repro.storage import write_store
from repro.testkit.datasets import seeded_dataset
from repro.trajectory.io import save_dataset_jsonl


@pytest.fixture(scope="module")
def eager():
    return seeded_dataset(6, n_trajectories=8, n_ticks=20)


def _same_snapshot(a: ServingSnapshot, b: ServingSnapshot) -> None:
    assert a.grid == b.grid
    assert a.engine.active_cells == b.engine.active_cells
    assert np.array_equal(
        a.engine.index_arrays()[2], b.engine.index_arrays()[2]
    )


def test_bare_store_path_is_sniffed(eager, tmp_path):
    jsonl = tmp_path / "d.jsonl"
    save_dataset_jsonl(eager, jsonl)
    store = write_store(eager, tmp_path / "d.tjc")
    _same_snapshot(
        ServingSnapshot.load(store),
        ServingSnapshot.load(jsonl),
    )


def test_dataset_tjc_wins_over_jsonl(eager, tmp_path):
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    # deliberately different JSONL twin: if the loader picked the JSONL the
    # grids would differ.
    other = seeded_dataset(7, n_trajectories=5, n_ticks=10)
    save_dataset_jsonl(other, snapdir / "dataset.jsonl")
    write_store(eager, snapdir / "dataset.tjc")
    snap = ServingSnapshot.load(snapdir)
    assert snap.describe()["n_trajectories"] == len(eager)


def test_serve_json_store_key(eager, tmp_path):
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    write_store(eager, snapdir / "taxis.tjc")
    (snapdir / "serve.json").write_text(json.dumps({"store": "taxis.tjc"}))
    snap = ServingSnapshot.load(snapdir)
    assert snap.describe()["n_trajectories"] == len(eager)
    assert snap.describe()["total_snapshots"] == eager.total_snapshots()


def test_serve_json_missing_store_raises(tmp_path):
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    (snapdir / "serve.json").write_text(json.dumps({"store": "missing.tjc"}))
    with pytest.raises(ValueError, match="missing.tjc"):
        ServingSnapshot.load(snapdir)


def test_serve_json_legacy_dtype_key_loads(eager, tmp_path):
    # Snapshots saved while the engine had a float32 mode carry this key.
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    write_store(eager, snapdir / "dataset.tjc")
    (snapdir / "serve.json").write_text(
        json.dumps({"version": "v1", "backend": "numpy", "dtype": "float64"})
    )
    snap = ServingSnapshot.load(snapdir)
    assert snap.version == "v1"
    _same_snapshot(snap, ServingSnapshot.load(snapdir / "dataset.tjc", backend="numpy"))


def test_serve_json_other_dtype_is_refused(eager, tmp_path):
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    write_store(eager, snapdir / "dataset.tjc")
    (snapdir / "serve.json").write_text(json.dumps({"dtype": "float32"}))
    with pytest.raises(ValueError, match="serve.json: dtype 'float32'"):
        ServingSnapshot.load(snapdir)


def test_directory_without_dataset_raises(tmp_path):
    snapdir = tmp_path / "snap"
    snapdir.mkdir()
    with pytest.raises(ValueError, match="dataset.tjc or"):
        ServingSnapshot.load(snapdir)


def test_describe_serves_from_store(eager, tmp_path):
    store = write_store(eager, tmp_path / "d.tjc")
    info = ServingSnapshot.load(store).describe()
    assert info["n_trajectories"] == len(eager)
    assert info["sigma_typical"] == float(np.median(eager.all_sigmas()))
