#!/usr/bin/env python3
"""Build and run the robustpath benchmark from the root of a checkout.

    python3 perfbench/run.py --workload photo --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune, then hands it the arguments; the
last line of standard output is the JSON result.  See perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a robustpath checkout "
                         "(no dune-project or lib/ here)\n")
        return 2
    # No shared dune cache: the build reads and writes inside the checkout.
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "perfbench/bench.exe"], stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
