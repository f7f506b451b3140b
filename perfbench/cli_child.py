"""Run one hlgal command the way the ``hlgal`` console script does.

Usage: python3 perfbench/cli_child.py <hlgal arguments...>

When PERFBENCH_TRACE names a file, the benchmark's tracer is installed
after the import and its spans are written to that file at exit.  Stdout
is the command's own output either way.
"""

import os
import sys
import time

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hlgal.cli  # noqa: E402

t_imported = time.perf_counter()


def main() -> int:
    trace_file = os.environ.get("PERFBENCH_TRACE")
    if not trace_file:
        return hlgal.cli.main(sys.argv[1:])
    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    tracer.record_span("cli.import", t_start, t_imported)
    tracer.install()
    try:
        return hlgal.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
