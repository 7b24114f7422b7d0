#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload hunt-bp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works: paths are resolved
from this file).  The OCaml benchmark in this directory is built with
dune against the repository's libraries; its standard output is passed
through, and its last line is the JSON result.  Build output goes to
standard error.  Without the repository's sources next to this
directory the build fails and this script exits non-zero.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    for f in ("dune-project", os.path.join("lib", "runner", "dune")):
        if not os.path.exists(os.path.join(ROOT, f)):
            print(f"perfbench: {f} is missing; not a source checkout", file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; keep the build
    # inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        dune + ["build", "--root", ROOT, "perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode


def pin_to_one_cpu():
    # One client and one daemon worker hand each request back and forth;
    # on one CPU those hand-offs are plain context switches, not
    # cross-CPU wake-ups whose cost depends on where the scheduler put
    # each thread.  It also keeps cpu_s <= wall_s.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    rc = build()
    if rc != 0:
        return rc or 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                          preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main())
