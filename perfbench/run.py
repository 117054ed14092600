#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/bench.exe with dune (build output goes to
stderr, dune's shared cache is disabled so nothing is written outside the
checkout) and then replaces itself with the benchmark, which prints the
result as the last line of standard output. It exits with code 2, without
printing a result, when the build fails.
"""

import os
import subprocess
import sys

TARGET = os.path.join("perfbench", "bench.exe")
BINARY = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./" + TARGET]
    try:
        build = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(BINARY):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
