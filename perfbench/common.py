"""Shared helpers: checkout paths, the run environment, statistics, output."""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Everything the benchmark writes goes under here (git-ignored).
WORK = ROOT / ".perfbench_work"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no program sources)."""


def prepare_environment() -> Path:
    """Make the program importable and keep every write inside the checkout.

    Returns a fresh per-run scratch directory; :func:`cleanup` removes it.
    The compiled-kernel cache (``REPRO_KERNELS_CACHE``) is shared by runs in
    the same checkout, so only the first run pays the C build.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        sys.path.insert(1, str(ROOT))
    kernels = WORK / "kernels"
    kernels.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["REPRO_KERNELS_CACHE"] = str(kernels)
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    return run_dir


def cleanup(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)


def child_env() -> dict:
    """Environment for program subprocesses (same imports, same caches)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_specs() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def emit(result: "Result", trace: bool) -> dict:
    """Print the result line: exactly the metrics BENCHMARK.json names."""
    kind = "per_layer" if trace else "end_to_end"
    units = metric_specs()[kind]
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    payload = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(payload), flush=True)
    return payload


class Result:
    """What a workload hands back to :func:`emit`.

    ``metrics`` holds every figure the workload measured (end-to-end and
    per-layer); ``emit`` prints the subset the run mode asks for.  Failed
    output checks are collected in ``problems`` and printed to stderr.
    """

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, problem: str | None, context: str = "") -> None:
        """Record a failed check (``problem`` is ``None`` when it passed)."""
        if problem is not None:
            self.problems.append(f"{context}: {problem}" if context else problem)
