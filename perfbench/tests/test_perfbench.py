"""The benchmark's own tests: smoke runs, metric names, output checks.

Run from the checkout root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, spans  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("mine-coarse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- each output check rejects a corrupted answer -----------------------------

TOPK = [((3,), -10.5), ((3, 4), -10.75), ((4, 3, 3), -11.0)]


def _bump(value: float) -> float:
    """The next float64 down: the smallest possible corruption."""
    return float(np.nextafter(value, -np.inf))


def test_topk_repeats():
    assert checks.topk_repeats([TOPK, list(TOPK)]) is None
    corrupted = [TOPK[0], (TOPK[1][0], _bump(TOPK[1][1])), TOPK[2]]
    assert checks.topk_repeats([TOPK, corrupted]) is not None
    assert checks.topk_repeats([TOPK, TOPK[::-1]]) is not None


def test_rescored_equal():
    assert checks.rescored_equal(TOPK, [nm for _, nm in TOPK]) is None
    rescored = [nm for _, nm in TOPK]
    rescored[2] = _bump(rescored[2])
    problem = checks.rescored_equal(TOPK, rescored)
    assert problem is not None and "1 ULP" in problem
    assert checks.rescored_equal(TOPK, rescored[:2]) is not None


def test_score_sample_equal():
    expected = {0: [-3.25], 97: [-4.5]}
    assert checks.score_sample_equal({0: [-3.25], 97: [-4.5], 5: [1.0]}, expected) is None
    assert checks.score_sample_equal({0: [-3.25], 97: [_bump(-4.5)]}, expected) is not None
    assert checks.score_sample_equal({0: [-3.25]}, expected) is not None
    assert checks.score_sample_equal({}, {}) is not None


def test_republish_equal():
    assert checks.republish_equal(list(TOPK), TOPK) is None
    assert checks.republish_equal(TOPK[:-1], TOPK) is not None
    assert checks.republish_equal([((9,), -10.5)] + TOPK[1:], TOPK) is not None


def test_mine_rescore_check_on_a_real_engine():
    """The reference re-score reproduces a mined top-k; a corrupted one fails."""
    from perfbench import mine

    engine, _, _ = mine._build(mine.SMOKE["mine-coarse"], 5)
    _, topk, _ = mine._mine_once(engine, 8)
    assert checks.rescored_equal(topk, mine._rescore(engine, topk)) is None
    cells, nm = topk[-1]
    corrupted = topk[:-1] + [(cells, _bump(nm))]
    assert checks.rescored_equal(corrupted, mine._rescore(engine, corrupted)) is not None


# -- spans ---------------------------------------------------------------------


class _Layer:
    def outer(self):
        time.sleep(0.002)
        return self.inner()

    def inner(self):
        time.sleep(0.003)
        return 7


def test_spans_nest_and_self_time_excludes_children():
    recorder = spans.Recorder()
    recorder.wrap(_Layer, "outer", "outer")
    recorder.wrap(_Layer, "inner", "inner")
    try:
        assert _Layer().outer() == 7
    finally:
        recorder.uninstall()
    assert _Layer.outer.__name__ == "outer" and not hasattr(_Layer.outer, "__wrapped__")
    recorded = spans.snapshot(recorder)
    assert recorded["parents"] == [-1, 0]
    times = spans.self_times(recorded)
    outer, inner = times["outer"], times["inner"]
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert inner["self_ns"] == inner["total_ns"] >= 3_000_000
