#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test | --manifest | --compare BASE CAND

The benchmark is an OCaml executable (perfbench/main.ml) built with dune
against the library sources of the same checkout. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits 2
without a result when the checkout or the build is unusable.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(cmd, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune-project")):
        if not os.path.exists(needed):
            fail("run from the root of a full checkout (%s is missing)" % needed)
    build = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"]
    try:
        code = run(build, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        fail("build failed (exit %d)" % code)
    args = sys.argv[1:]
    if "--workload" in args:
        args = args + ["--rev", revision()]
    sys.stdout.flush()
    return run([EXE] + args)


if __name__ == "__main__":
    sys.exit(main())
