#!/usr/bin/env python3
"""Serve benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_bulk --seed 1 --seconds 10 --trace 0

Builds the socpinn library and the benchmark program from source (Release,
SOCPINN_NATIVE=ON) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the statistics self-tests, then runs one
workload. The program's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
summary with provenance, roofline context and sample counts. A traced run
(--trace 1) also writes its spans as CSV under the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_bulk", "fleet_ingest", "shard_command", "rollout_plan")


def run_timeout_s(seconds):
    """Kill limit for one measurement: --seconds plus the 16 set-ups, the
    in-process replays and the traced extras, which come on top of it."""
    return 120 + 4 * seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False, **kw).returncode


def build(build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen) != 0:
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", "4"]) == 0


def source_digest(root):
    """sha256 over the sources the benchmark is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", os.path.relpath(HERE, root)):
        for d, _, files in sorted(os.walk(os.path.join(root, top))):
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git(root, *args):
    out = subprocess.run(["git"] + list(args), cwd=root, capture_output=True,
                         text=True, timeout=10, check=False)
    return out.stdout if out.returncode == 0 else None


def commit_id(root):
    """HEAD, marked -dirty with the source digest when the tree has local
    changes; only the source digest outside a git checkout."""
    digest = "src-sha256-" + source_digest(root)
    try:
        lines = (git(root, "rev-parse", "--show-toplevel", "HEAD") or "").split()
        # Only a repository rooted here names this tree's commit.
        if (len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(root)):
            status = git(root, "status", "--porcelain")
            if status is None or status.strip():
                return f"{lines[1]}-dirty:{digest}"
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none:" + digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        log("build failed")
        return 1
    if run_quiet([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        log("statistics self-tests failed; not measuring")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=run_timeout_s(args.seconds), check=False)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("benchmark printed a malformed result")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
