"""Traced stand-in for ``python -m planegroups.cli ARGS...``.

Installs the tracer, runs ``planegroups.cli.main(ARGS)`` timed from here,
and writes ``{"main_ns": ..., "trace": ...}`` as the last line of stderr.
Standard output and the exit status are the CLI's own.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import planegroups.cli

    start = time.perf_counter_ns()
    code = 1
    try:
        code = planegroups.cli.main(sys.argv[1:])
    finally:
        main_ns = time.perf_counter_ns() - start
        sys.stdout.flush()
        print(json.dumps({"main_ns": main_ns, "trace": tracer.snapshot()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
