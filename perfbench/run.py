"""hslab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {scan,discriminate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it are
a readable summary (machine note, `src/hslab` line count, fail_frac).

A run alternates set-ups and passes over the workload's fixed job list, one
job in flight, until the next pass would end after S seconds of passes.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json.  With
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"

# BLAS threads of every job process; 1 keeps runs steady on a 2-CPU machine.
BLAS_THREADS = 1
# Set up before each round of passes, so that the set-ups sample the same
# stretch of time as the passes: at least once per round, until set-ups took
# SETUP_SHARE of the pass time so far, and at least SETUP_MIN_REPS times in all.
# The share gives a 0.2 s set-up more samples than a run has rounds.
SETUP_SHARE = 0.1
SETUP_MIN_REPS = 6
CHILD_TIMEOUT = 150


def child_env(work: Path) -> dict[str, str]:
    """Environment of every job process: checkout hslab, pinned BLAS threads,
    and HSLAB_CACHE pointing at a benchmark-owned directory that must stay
    empty, so no job can reach the user's cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["HSLAB_CACHE"] = str(work / "env-cache")
    return env


def run_child(cmd: list[str], env: dict, stdout: Path, stderr: Path) -> dict:
    """Run one process to completion; wall time, exit code and peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped: dict = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["end"] = time.monotonic()
            reaped["code"] = os.waitstatus_to_exitcode(status)
            reaped["rss_kb"] = usage.ru_maxrss

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(CHILD_TIMEOUT)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        proc.returncode = reaped["code"]
    return {"start": start, "wall": reaped["end"] - start, "code": reaped["code"],
            "rss_mb": reaped["rss_kb"] / 1024.0}


def _tail(path: Path) -> str:
    text = path.read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "no output"


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(workload: str, work: Path, env: dict) -> tuple[float, dict, Path]:
    """Set up once in a fresh interpreter with an empty cache directory.
    Returns the time, the worker's version note and the cache directory,
    which the cli jobs then read as their warm cache."""
    cache = work / "setup-cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    result = work / "setup.json"
    ran = run_child(
        [sys.executable, str(HERE / "worker.py"), "setup", workload, str(result), str(cache)],
        env, work / "setup.out", work / "setup.err",
    )
    if ran["code"] != 0:
        raise SystemExit(f"set-up failed: {_tail(work / 'setup.err')}")
    note = json.loads(result.read_text())
    return note["end"] - ran["start"], note, cache


def library_pass(workload: str, seed: int, work: Path, env: dict, index: int, traced: bool) -> dict:
    result = work / "pass.json"
    result.unlink(missing_ok=True)
    span_file = work / f"spans-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "pass", workload, str(seed), str(result)]
    if traced:
        cmd.append(str(span_file))
    ran = run_child(cmd, env, work / "pass.out", work / "pass.err")
    names = [name for name, _, _ in jobs.LIBRARY[workload]]
    if ran["code"] != 0 or not result.exists():
        error = f"pass process failed: {_tail(work / 'pass.err')}"
        return {"pass_s": ran["wall"], "rss_mb": ran["rss_mb"], "span_files": [],
                "jobs": [{"name": n, "time": None, "error": error} for n in names]}
    data = json.loads(result.read_text())
    data["rss_mb"] = ran["rss_mb"]
    data["span_files"] = [span_file] if traced else []
    return data


def cli_pass(seed: int, work: Path, env: dict, index: int, traced: bool,
             reference: dict, warm: Path) -> dict:
    inp = jobs.draw(seed)
    cold = work / f"cold-cache-{index}"
    cold.mkdir()
    specs = jobs.cli_jobs(inp, reference["iso_cases"], str(cold), str(warm))
    runs, span_files = [], []
    started = time.monotonic()
    for number, (name, key, argv) in enumerate(specs):
        if traced:
            span_file = work / f"spans-{index}-{number}.json"
            span_files.append(span_file)
            cmd = [sys.executable, str(HERE / "shim.py"), str(span_file), str(number), *argv]
        else:
            cmd = [sys.executable, "-m", "hslab.cli", *argv]
        out, err = work / f"job-{number}.out", work / f"job-{number}.err"
        runs.append((name, key, out, err, run_child(cmd, env, out, err)))
    pass_s = time.monotonic() - started

    # Every job, traced or not, cold or warm, is held to the digest recorded
    # under its key; cold and warm share a key, so equal digests also mean
    # traced = untraced and cold = warm stdout.
    records = []
    for name, key, out, err, ran in runs:
        stdout = out.read_bytes()
        if ran["code"] != 0:
            error = f"exit code {ran['code']}: {_tail(err)}"
        else:
            try:
                error = jobs.check_cli(name, stdout, hashlib.sha256(stdout).hexdigest(),
                                       reference["cli"].get(key, "missing"))
            except Exception as exc:  # unreadable output fails the job
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"name": name, "time": ran["wall"], "error": error})
    shutil.rmtree(cold)
    return {"pass_s": pass_s, "rss_mb": max(r[4]["rss_mb"] for r in runs),
            "jobs": records, "span_files": span_files}


def run_passes(args, work: Path, env: dict, reference: dict) -> tuple[list[dict], list[float], dict]:
    """Rounds until the next one would end after --seconds of passes.  A
    round is set-ups and one untraced pass, or with --trace 1 an untraced
    and a traced pass; set-up time does not count against --seconds.
    Returns the passes, the set-up times and the worker's version note."""
    modes = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    setups: list[float] = []
    measured = 0.0
    while True:
        setup_s, note, warm = set_up(args.workload, work, env)
        setups.append(setup_s)
        while sum(setups) < SETUP_SHARE * measured:
            setups.append(set_up(args.workload, work, env)[0])
        round_start = time.monotonic()
        for traced in modes:
            index = len(passes)
            if args.workload == "cli":
                record = cli_pass(args.seed, work, env, index, traced, reference, warm)
            else:
                record = library_pass(args.workload, args.seed, work, env, index, traced)
            record["traced"] = traced
            passes.append(record)
        round_s = time.monotonic() - round_start
        measured += round_s
        if measured + round_s > args.seconds:
            break
    while len(setups) < SETUP_MIN_REPS:
        setups.append(set_up(args.workload, work, env)[0])
    return passes, setups, note


# ---------------------------------------------------------------------------
# metrics


def job_means(untraced: list[dict]) -> list[float]:
    """Each job's mean wall time over the passes of the run; the job
    percentiles rest on these.  Times over passes are averaged, not taken
    at the median: as the shared host's speed changes, the times of a run
    split into a fast and a slow group, and the median of such a mix jumps
    between the groups from run to run, while the mean moves only as far as
    the mix does."""
    times: dict[str, list[float]] = {}
    for p in untraced:
        for j in p["jobs"]:
            if j["time"] is not None:
                times.setdefault(j["name"], []).append(j["time"])
    return [statistics.fmean(v) for v in times.values()]


def end_to_end(setup_times: list[float], untraced: list[dict]) -> dict[str, float]:
    means = job_means(untraced)
    if len(means) < 2:  # only when jobs failed; quantiles needs two points
        means = (means or [0.0]) * 2
    percentiles = statistics.quantiles(means, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.fmean(p["pass_s"] for p in untraced),
        "job_p50_s": percentiles[49],
        "job_p90_s": percentiles[89],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    samples = [spans.pass_metrics(p["span_files"], p["pass_s"]) for p in traced]
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    plain = statistics.median(p["pass_s"] for p in untraced)
    out["trace.overhead_frac"] = statistics.median(p["pass_s"] for p in traced) / plain - 1.0
    starts = [j["time"] for p in untraced for j in p["jobs"] if j["name"] == "version"]
    out["cli.start_s"] = statistics.median(starts) if starts else 0.0
    return out


def machine_note(worker_note: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"cpu={cpu!r} nproc={os.cpu_count()} python={worker_note['python']} "
            f"numpy={worker_note['numpy']} blas_threads={BLAS_THREADS}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "hslab").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hslab" / "__init__.py").is_file():
        print(f"no hslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "env-cache").mkdir(parents=True)
    env = child_env(work)
    reference = jobs.load_reference()
    passes, setup_times, note = run_passes(args, work, env, reference)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, declared = per_layer(untraced, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(setup_times, untraced), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failures = [(j["name"], j["error"]) for p in passes for j in p["jobs"] if j["error"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    leaked = sorted(str(p.relative_to(work)) for p in (work / "env-cache").rglob("*"))
    if args.trace and args.workload != "cli":
        touched = values["irrep_cache.read.hits"] + values["irrep_cache.read.misses"]
        if touched or values["irrep_cache.write.bytes"]:
            leaked.append("irrep_cache used by a workload that takes no cache directory")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced, set-ups={len(setup_times)}")
    print(f"machine: {machine_note(note)}")
    print(f"src/hslab lines: {src_lines()}")
    print(f"fail_frac: {len(failures) / attempted:.6g} ({len(failures)} failed / {attempted} attempted)")
    job_runs = sum(1 for p in untraced for j in p["jobs"] if j["time"] is not None)
    print(f"job percentiles over {len(job_means(untraced))} job means "
          f"from {job_runs} untraced job runs; pass_s samples: "
          + " ".join(f"{p['pass_s']:.3f}" for p in untraced))
    for name, error in failures:
        print(f"FAILED {name}: {error}", file=sys.stderr)
    for item in leaked:
        print(f"CACHE ISOLATION BROKEN: {item}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    shutil.rmtree(work)
    print(json.dumps({"correct": not failures and not leaked, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
