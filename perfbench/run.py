#!/usr/bin/env python3
"""Build the benchmark suite from source, then run it.

    python3 perfbench/run.py --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --workload all --seed N ...   every workload in turn
    python3 perfbench/run.py --smoke --out FILE
    python3 perfbench/run.py --compare A.json B.json

W is sim, domains or procs-sock.  Run from the root of a
checkout of the repository: the suite is built with dune into _build/
there, and a traced run writes its Chrome trace under perfbench/out/.
Each workload runs in a fresh process of its own, in a new session so
that it and the worker processes it spawns are killed together if it
overruns.  The last line of output is the suite's JSON result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE = os.path.join(ROOT, "_build", "default", "perfbench", "suite.exe")
WORKLOADS = ["sim", "domains", "procs-sock"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in ("dune-project", "lib", "BENCHMARK.json")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # no shared cache: the build reads and writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(dune + ["build", "--root", ROOT, "./perfbench/suite.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run(args):
    proc = subprocess.Popen([SUITE] + args, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def value_after(argv, flag):
    i = argv.index(flag) + 1 if flag in argv else len(argv)
    return argv[i] if i < len(argv) else None


def main(argv):
    build()
    workload = value_after(argv, "--workload")
    if workload is None:
        return run(argv)
    i = argv.index("--workload") + 1
    status = 0
    for w in WORKLOADS if workload == "all" else [workload]:
        args = argv[:i] + [w] + argv[i + 1:]
        if value_after(args, "--trace") == "1" and "--trace-out" not in args:
            os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
            args += ["--trace-out", os.path.join(
                "perfbench", "out", "trace-%s-seed%s.json" % (w, value_after(args, "--seed")))]
        status = run(args) or status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
