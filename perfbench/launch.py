"""Start the shipped ``repro`` CLI, optionally with layer tracing.

    PYTHONPATH=src python3 perfbench/launch.py <repro arguments...>

Equivalent to ``python3 -m repro <arguments...>``.  When the
``PERFBENCH_TRACE_DIR`` environment variable names a directory, the
layer wrappers of :mod:`tracer` are installed first (after timing the
import of ``repro.cli``, recorded as the ``cli.import`` span), so the
program runs unmodified while every process it forks writes its spans
into that directory.
"""

from __future__ import annotations

import os
import sys
import time

TRACE_DIR_VARIABLE = "PERFBENCH_TRACE_DIR"


def main(argv) -> int:
    trace_dir = os.environ.get(TRACE_DIR_VARIABLE)
    start = time.perf_counter_ns()
    import repro.cli

    end = time.perf_counter_ns()
    if trace_dir:
        import tracer

        tracer.install(trace_dir).record("cli.import", start, end)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
