"""Record perfbench/reference.json: the expected outputs the checks compare to.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  It
runs every library job that has a recorded reference, the S3 k=3 Helstrom
job for every ordered pair of distinct shifts, and every CLI job for every
pooled seed value and iso instance, and stores values and stdout digests.
The iso instances are generated here: the first POOL rigid 6-vertex graphs
of `rigid_corpus` and, for each, a relabeling drawn from its pool index.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

import jobs
import run
import worker


# Library jobs whose checks compare to a recorded value; none takes seeded input.
RECORDED = ("state_rank S4 k=3", "state_rank Z8 k=3", "state_rank Z2xZ4 k=3",
            "spectrum_rows S4 k=3", "interior_eigenvalue_check S5 k=2", "state_spectrum S4 k=2",
            "subset_sum_table Z8 k=6", "subset_sum_table Z2xZ4 k=5", "moments Z16 k=8")


def library_references(h) -> dict:
    library = {name: job for name, job, _ in jobs.SCAN + jobs.DISCRIMINATE}
    ref = {name: library[name](h, {}) for name in RECORDED}
    pair_job = library["helstrom S3 k=3 shift pair"]
    ref["helstrom S3 k=3 pairs"] = {
        f"{a},{b}": pair_job(h, {"s3_pair": [a, b]})["success"]
        for a in range(6) for b in range(6) if a != b
    }
    return ref


def iso_cases(h) -> list[dict]:
    cases = []
    for index, A in enumerate(h.rigid_corpus(6, jobs.POOL)):
        images = list(range(6))
        random.Random(index).shuffle(images)
        B = h.graph_act(tuple(images), A)
        cases.append({
            "first": h.format_graph(A).strip().replace("\n", ";"),
            "second": h.format_graph(B).strip().replace("\n", ";"),
        })
    return cases


def cli_references(cases: list[dict]) -> dict:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    (work / "env-cache").mkdir(parents=True)
    env = run.child_env(work)
    digests = {}
    for value in range(jobs.POOL):
        inp = {"variance_seed": value, "sweep_seed": value, "iso_case": value}
        cold = work / f"cold-{value}"
        specs = jobs.cli_jobs(inp, cases, str(cold), str(work / "warm"))
        for name, key, argv in specs:
            if key in digests:
                continue
            out, err = work / "job.out", work / "job.err"
            ran = run.run_child([sys.executable, "-m", "hslab.cli", *argv], env, out, err)
            if ran["code"] != 0:
                raise SystemExit(f"{name} failed: {err.read_text()}")
            digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{key}: {digests[key][:12]} {ran['wall']:.2f} s", file=sys.stderr)
    if any((work / "env-cache").iterdir()):
        raise SystemExit("a CLI job used the environment cache directory")
    shutil.rmtree(work)
    return digests


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    h = worker.import_hslab()
    cases = iso_cases(h)
    reference = library_references(h)
    reference["iso_cases"] = cases
    reference["cli"] = cli_references(cases)
    jobs.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
