"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once with tracing off and once with it on, each for a
single round (`--seconds 1`) at the normal inputs.  It checks that the last
line of stdout is the result object, that every metric BENCHMARK.json
declares for that mode appears with its unit and nothing else does, and
that no job failed (fail_frac 0).  It prints every metric by name and unit,
and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    ran = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if ran.returncode != 0:
        return [f"exit code {ran.returncode}: {ran.stderr.strip()[-500:]}"]
    result = json.loads(ran.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"fail_frac not 0: {result['failed']} of {result['attempted']} failed; "
                        + ran.stderr.strip()[-500:])
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units {got}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], (int, float)):
            print(f"    {name} = {m['value']:.6g} {m['unit']}")
        else:
            problems.append(f"{name} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{workload} --trace {trace}")
            problems = check(workload, trace, spec[key])
            for problem in problems:
                print(f"  FAIL {problem}")
            failed |= bool(problems)
    print("FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
