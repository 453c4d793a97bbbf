"""Benchmark of the boxperturb CLI: ablate, eval, perturb and preprocess paths.

    python3 perfbench/run.py                          # every workload, seed 0
    python3 perfbench/run.py --workload eval-512 --seed 3 --seconds 20 --trace 0

Each workload runs in its own child process (workloads.py), one at a
time, against the package in ./src of the checkout this file sits in.
With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced round.  The last line of
standard output is one JSON object: for a single workload,
{"correct", "attempted", "failed", "metrics"}; for `all`, those objects
keyed by workload name.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ablate-128", "eval-512", "perturb-draws", "preprocess-1024")

# A child that has not finished by then is killed; a run must end within 180 s.
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    """Python, numpy, usable CPUs and, in a git checkout, the commit."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process; relay its output; return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "boxperturb" / "cli.py").is_file():
        print(f"perfbench: no boxperturb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_child(name, args.seed, args.seconds, args.trace)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:16s} {metric:40s} {m['value']:.6g} {m['unit']}", flush=True)
    print(json.dumps(results if args.workload == "all" else results[names[0]]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
