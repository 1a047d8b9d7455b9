"""One fresh process of a workload: set-up, or one pass over the library jobs.

    python3 perfbench/worker.py setup WORKLOAD RESULT CACHE_DIR
    python3 perfbench/worker.py pass WORKLOAD SEED RESULT [SPANS]

`setup` imports hslab and builds the irreps (matrix stacks included) of the
workload's groups, then writes the CLOCK_MONOTONIC time at which it was
done.  For `cli` the symmetric groups go through CACHE_DIR, as the CLI does.

`pass` runs the fixed job list of `scan` or `discriminate` once, timing each
job, and checks every output afterwards.  With SPANS it traces the jobs and
writes the spans there at the end.  hslab must come from the checkout's
`src` directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import jobs
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def import_hslab():
    import hslab

    if SRC not in Path(hslab.__file__).resolve().parents:
        raise SystemExit(f"hslab was imported from {hslab.__file__}, not from {SRC}")
    return hslab


def setup(workload: str, result: str, cache_dir: str) -> None:
    h = import_hslab()
    for name in jobs.SETUP_GROUPS[workload]:
        group = h.parse_group(name)
        cached = workload == "cli" and group.kind == "symmetric"
        for rep in h.irreps(group, cache_dir=cache_dir if cached else None):
            rep.stack()
    end = time.monotonic()
    import numpy

    note = {"end": end, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    Path(result).write_text(json.dumps(note))


def run_pass(workload: str, seed: int, result: str, span_file: str | None) -> None:
    h = import_hslab()
    inp = jobs.draw(seed)
    reference = jobs.load_reference()
    tracer = None
    if span_file:
        tracer = spans.Tracer()
        spans.install(tracer)
    outcomes = []
    clock = time.perf_counter
    started = clock()
    for index, (name, run, _) in enumerate(jobs.LIBRARY[workload]):
        if tracer:
            tracer.job = index
            tracer.active = True
        t0 = clock()
        try:
            out, error = run(h, inp), None
        except Exception as exc:  # a failing job is counted, the pass goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if tracer:
            tracer.active = False
        outcomes.append((name, elapsed, out, error))
    pass_s = clock() - started

    records = []
    for (name, elapsed, out, error), (_, _, check) in zip(outcomes, jobs.LIBRARY[workload]):
        if error is None:
            try:
                error = check(h, inp, out, reference)
            except Exception as exc:  # a check that cannot run fails the job
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"name": name, "time": elapsed, "error": error})
    Path(result).write_text(json.dumps({"pass_s": pass_s, "jobs": records}))
    if tracer:
        tracer.dump(span_file)


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(argv[1], argv[2], argv[3])
    elif argv[0] == "pass":
        run_pass(argv[1], int(argv[2]), argv[3], argv[4] if len(argv) > 4 else None)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
