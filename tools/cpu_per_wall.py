#!/usr/bin/env python3
"""Runs a command and fails if it burns more CPU than its wall time allows.

    python3 tools/cpu_per_wall.py -- <command> [args...]

Measures the command's wall time and the user + system CPU time of it and
every process it reaped (getrusage(RUSAGE_CHILDREN)), prints the ratio
(CPU seconds per wall second) and exits nonzero when the command fails or
the ratio exceeds MAX_RATIO.  A deadline-bound test whose threads sleep in
their waits reads near 0; one busy-waiting thread reads near 1.
"""
import argparse
import resource
import subprocess
import sys
import time

# Largest allowed (user + sys) / wall.
MAX_RATIO = 0.5


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    code = subprocess.call(command)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    user = after.ru_utime - before.ru_utime
    sys_s = after.ru_stime - before.ru_stime
    ratio = (user + sys_s) / wall if wall > 0 else 0.0
    print(f"cpu_per_wall: {user:.2f} s user + {sys_s:.2f} s sys over "
          f"{wall:.2f} s wall = {ratio:.3f} (max {MAX_RATIO})")
    if code != 0:
        print(f"cpu_per_wall: command exited with {code}", file=sys.stderr)
        return code
    if ratio > MAX_RATIO:
        print("cpu_per_wall: the command used more CPU than allowed; "
              "is a thread spinning instead of blocking?", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
