"""Run a ``python -m repro`` command with the benchmark's timers installed.

    python3 perfbench/launch.py SPANS.json serve --port 0
    python3 perfbench/launch.py SPANS.json worker --db q.db --no-cache

Installs the span wrappers for the command's role (``serve`` or
``worker``), hands over to the same CLI entry point ``python -m repro``
uses, and writes the recorded spans to ``SPANS.json`` when the command
returns (both commands return normally on SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = spans.Tracer(command[0])
    if command[0] == "serve":
        spans.instrument_server(tracer)
    elif command[0] == "worker":
        spans.instrument_worker(tracer)
    from repro.runtime.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
