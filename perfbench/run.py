#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fuzz-boom --seed 1 --seconds 20 --trace 0

The arguments are passed to perfbench/main.exe unchanged; its last line of
standard output is the JSON result. `--workload all` runs every workload
in turn with the other arguments. The exit code is non-zero when the build
or the run fails.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ["fuzz-boom", "fuzz-nutshell-dual-traced", "static-rtl"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 1
    # Keep every build artefact inside the checkout (no shared dune cache).
    env = dict(os.environ, DUNE_CACHE="disabled")
    result = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    return result.returncode


def main(argv):
    status = build()
    if status != 0:
        return status or 1
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        i = argv.index("--workload")
        for workload in WORKLOADS:
            status = subprocess.run([EXE, *argv[:i], "--workload", workload, *argv[i + 2 :]]).returncode
            if status != 0:
                return status
        return 0
    return subprocess.run([EXE, *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
