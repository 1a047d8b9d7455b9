"""Run one command and fail when it exits nonzero or its peak RSS reaches a bound.

    python3 tools/peak_rss.py --under MB -- COMMAND [ARG ...]

COMMAND is looked up on PATH and run as a child process. Its peak resident
set size, in MB of 2^20 bytes, is read from the rusage that os.wait4
returns, which covers the child and every descendant it waited for. The
script prints "COMMAND: exit CODE, peak RSS PEAK MB" and exits 1 when CODE
is not 0 or PEAK is at least MB, else 0.
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--under", type=float, required=True, metavar="MB")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the command to run after --")
    path = shutil.which(command[0])
    if path is None:
        parser.error(f"{command[0]} is not on PATH")
    pid = os.spawnv(os.P_NOWAIT, path, command)
    _, status, usage = os.wait4(pid, 0)
    code, peak = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{shlex.join(command)}: exit {code}, peak RSS {peak:.1f} MB")
    return int(code != 0 or peak >= args.under)


if __name__ == "__main__":
    raise SystemExit(main())
