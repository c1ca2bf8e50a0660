#!/usr/bin/env python3
"""Build and run the benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune, runs
one workload, relays its report, and adds the process's peak resident
memory (peak_rss_mb) to the end-to-end metrics. The last line of
standard output is the JSON result. Exits non-zero, without a result,
when the sources or the toolchain are missing or the build fails, and
non-zero after the result when a self-check failed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ("fabric-churn", "firehose-64", "paper-fig13")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the library and benchmark sources: the build's identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = []
    for top in ("lib", "perfbench"):
        files += [p for p in (root / top).rglob("*") if p.is_file() and p.suffix in (".ml", ".mli", "")]
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    root = pathlib.Path.cwd()
    if not (root / "dune-project").is_file() or not (root / "lib").is_dir():
        fail("run from the repository root: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = root / "_build" / "default" / "perfbench" / "main.exe"

    print("provenance: nproc=%d commit=%s sources=%s"
          % (os.cpu_count() or 0, git_commit(root), source_digest(root)), flush=True)
    proc = subprocess.Popen(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    # The benchmark forks a child per leg: on timeout, kill the group.
    timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    out = proc.stdout.read()
    # wait4 reaps the benchmark itself, so ru_maxrss is its own high-water
    # mark (KiB on Linux), not the build's.
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:
        fail("killed by signal %d (time limit %d s)" % (-code, TIMEOUT_S))
    lines = out.splitlines()
    if not lines:
        fail("no output (exit code %d)" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result (exit code %d)" % code)
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
