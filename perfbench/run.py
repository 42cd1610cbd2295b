#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload cold-store|release-train|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program and the
calibrod daemon from source with dune, runs one workload in a scratch
directory under .perfbench_work/ and exits with the program's exit code.
The last line of standard output is the JSON result; build output goes
to standard error. See perfbench/NOTES.md.

The scratch directory is left in place. Deleting the thousands of cache
entry files a run writes makes the disk slow to allocate for a minute or
more afterwards (seen on ext4 mounted with online discard), which slowed
the set-up and loop of the runs that followed by up to a third, more
with every run. A release-train run leaves about 80 MB, a serve run about
30 MB. .perfbench_work/ is ignored by git; remove it when done
benchmarking.
"""

import os
import signal
import subprocess
import sys
import tempfile

# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled",
         "./perfbench/main.exe", "./bin/calibrod.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work = os.path.relpath(
        tempfile.mkdtemp(prefix="run-",
                         dir=os.path.join(root, ".perfbench_work")),
        root)
    cmd = [os.path.join(root, "_build", "default", "perfbench", "main.exe"),
           *sys.argv[1:],
           "--calibrod", os.path.join("_build", "default", "bin", "calibrod.exe"),
           "--work", work,
           "--expected", os.path.join("perfbench", "expected.txt")]
    # A session of its own, so a timeout can stop the daemon it starts too.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
