"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload mine-coarse --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` installs the outside-in layer wrappers (``perfbench/spans.py``)
and prints the per-layer metrics instead.  Both modes check the program's
outputs.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with exactly the metrics ``BENCHMARK.json`` lists for the mode.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Run as a script: make ``import perfbench`` resolve to this checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("mine-coarse", "ingest-live")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, for the benchmark's own tests (numbers meaningless)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        run_dir = common.prepare_environment()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.workload == "mine-coarse":
            from perfbench import mine

            result = mine.run(
                args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
            )
        else:
            from perfbench import serving

            result = serving.run(
                args.workload,
                args.seed,
                args.seconds,
                bool(args.trace),
                args.smoke,
                run_dir,
            )
    finally:
        common.cleanup(run_dir)

    if args.trace:
        # Layers a workload does not exercise did no work on it.
        for name in common.metric_specs()["per_layer"]:
            result.metrics.setdefault(name, 0.0)
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    common.emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
