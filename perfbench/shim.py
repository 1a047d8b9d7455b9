"""Run one hslab CLI job with span tracing, as `python -m hslab.cli` would.

    python3 perfbench/shim.py SPANS JOB_ID ARG...

The import of hslab.cli is recorded as the span `cli.import`; then the
wrappers are installed and `hslab.cli.main(ARG...)` runs with tracing on.
Spans go to the file SPANS at exit, never to stdout.
"""

from __future__ import annotations

import sys
import time

import spans


def main() -> None:
    path, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer(job)
    start = time.perf_counter()
    import hslab.cli

    tracer.spans.append(["cli.import", job, -1, start, time.perf_counter(), None])
    spans.install(tracer)
    tracer.active = True
    try:
        code = hslab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.active = False
        tracer.dump(path)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
