"""One traced `igc` call: times import and main, records spans, reports on stderr.

Run as ``python3 -X importtime perfbench/cli_child.py <igc arguments>`` with
``src`` on PYTHONPATH.  Standard output and the exit code are exactly those
of ``igc <igc arguments>``; the last standard-error line is
``PERFBENCH-TRACE <json>`` with the wall-clock start of this script, the
import and main times, and the spans recorded inside ``igc.cli.main``.
"""

import time

T_START = time.time()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (stdlib only; sys.path[0] is this directory)

MARKER = "PERFBENCH-TRACE "


def main() -> int:
    t0 = time.perf_counter()
    import igc.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        main_span = tracer.wrap(igc.cli.main, "cli.main")
        t1 = time.perf_counter()
        code = main_span(sys.argv[1:])
        main_s = time.perf_counter() - t1
    sys.stdout.flush()
    spans, counts = tracer.drain()
    report = {
        "t_start": T_START,
        "import_s": import_s,
        "main_s": main_s,
        "names": tracer.names,
        "spans": spans,
        "counts": counts,
    }
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
