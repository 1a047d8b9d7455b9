"""Write BENCH_<n>.json: the end-to-end benchmark of one checkout.

    python3 tools/bench.py N [--root CHECKOUT]

Runs the unchanged `python3 perfbench/run.py --workload W --seed 11
--seconds 35 --trace 0` once per workload of BENCHMARK.json, each as a
subprocess from the root of CHECKOUT (by default the checkout holding this
script), and keeps the last line of its stdout, one JSON object with the
end-to-end metrics, `correct`, `attempted` and `failed`. BENCH_<N>.json, in
the root of the checkout holding this script, adds the `src/hslab` line
count, the number of tier-1 tests collected, the commit (and whether
tracked files differ from it) and the machine note run.py prints. One file
takes three 35 s runs plus their set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUN_ARGS = ["--seed", "11", "--seconds", "35", "--trace", "0"]


def _run(cmd: list[str], root: Path, env: dict | None = None) -> str:
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _tier1_tests(root: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = _run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"], root, env)
    return int(re.search(r"^(\d+) tests? collected", out, re.M).group(1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args()
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench: dict = {
        "commit": _run(["git", "rev-parse", "HEAD"], root).strip(),
        "tracked_files_changed": bool(_run(["git", "status", "--porcelain", "--untracked-files=no"], root)),
        "src_hslab_lines": sum(len(p.read_text().splitlines()) for p in (root / "src" / "hslab").glob("*.py")),
        "tier1_tests": _tier1_tests(root),
        "run": " ".join(["python3", "perfbench/run.py", "--workload", "W", *RUN_ARGS]),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        out = _run([sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS], root)
        bench["machine"] = re.search(r"^machine: (.*)$", out, re.M).group(1)
        bench["workloads"][workload] = json.loads(out.strip().splitlines()[-1])
        print(workload, json.dumps(bench["workloads"][workload]), flush=True)
    path = HERE / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
