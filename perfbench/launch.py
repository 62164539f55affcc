"""Traced stand-in for the ``dynr`` command.

``python3 perfbench/launch.py SPANS_PATH OP_ID -- <dynr arguments>`` imports
dynr from the checkout, installs the same wrappers as the in-process traced
run, and calls ``dynr.cli.main`` with the arguments.  The exit code and any
traceback are those of the real command; the spans and the time spent inside
``dynr.cli.main`` are written to SPANS_PATH when the process ends.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracer_mod  # noqa: E402
from workloads import LAMBDA_BOX  # noqa: E402


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_PATH OP_ID -- <dynr arguments>")
    tracer = tracer_mod.Tracer(lambda_box=LAMBDA_BOX)
    tracer.op = int(op_id)
    import dynr.cli

    tracer.install()
    start = time.perf_counter()
    try:
        return dynr.cli.main(argv)
    finally:
        tracer.count("cli.main_s", time.perf_counter() - start)
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
