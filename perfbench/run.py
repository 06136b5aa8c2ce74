#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload crash-nofault --seed 1 --seconds 20 --trace 0

Build output goes to stderr; the benchmark's own output (one line per
metric, then the JSON summary as the last line) goes to stdout. Exits
non-zero without a summary when the build fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])
    return 2


if __name__ == "__main__":
    sys.exit(main())
