"""Traced server entry point: ``serve_entry.py SPANS_OUT <repro cli args>``.

Installs the benchmark's span wrappers (``perfbench/spans.py``), runs
``repro.cli.main`` with the remaining arguments, and writes the recorded
spans to ``SPANS_OUT`` when the CLI returns (after a ``shutdown`` op).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = spans.install(spans.Recorder())
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
