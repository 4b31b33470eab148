"""Traced stand-in for ``python -m flagtke.cli``, used by the traced cli run.

    python3 perfbench/cli_driver.py SPANS_FILE CLI_ARGS...

Times the import of ``flagtke.cli`` in this fresh interpreter, before
anything else is imported, wraps the layer functions, runs ``main`` on
CLI_ARGS with the same stdout and exit code as the real entry point, then
appends its spans to SPANS_FILE.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import flagtke.cli as cli

    import_ns = time.perf_counter_ns() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.counters["import_ns"] = import_ns
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
