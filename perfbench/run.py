#!/usr/bin/env python3
"""Builds the program under test from source and runs one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default `.bench_build`). The run prints a machine
fingerprint line, the run's human-readable metric lines, and, as the last
line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--record FILE` also appends the result,
the fingerprint and the percentile `job_ms_tail` reads as one JSON line to
FILE, for `perfbench/compare.py`.

Exit codes: 0 on success, 1 when an output check fails or the run cannot
complete, 2 when the program cannot be built.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The thread count every engine in a run uses; part of the fingerprint.
CONFX_THREADS = "2"
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark and the daemon; returns the binary directory."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
           "-p", "perfbench", "-p", "confuciux-server"]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        built = False
    if not built:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(target, "release")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Hash of every source file the build reads, so results from a checkout
    without git history can still be told apart."""
    digest = hashlib.sha256()
    skip = {".git", ".bench_build", "target"}
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                digest.update(top.encode() + f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "confx_threads": CONFX_THREADS,
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_sha256(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record")
    args = parser.parse_args()

    bindir = build()
    finger = fingerprint()
    print("fingerprint: " + json.dumps(finger, sort_keys=True), flush=True)

    cmd = [os.path.join(bindir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-bin", os.path.join(bindir, "confuciux-server")]
    env = dict(os.environ, CONFX_THREADS=CONFX_THREADS)
    # A session of its own, so a timed-out run takes its daemon down too.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if child.returncode != 0:
        sys.exit(1)
    if args.record:
        result = json.loads(out.strip().splitlines()[-1])
        tail = re.search(r"^job_ms_tail is p(\d+) ", out, re.MULTILINE)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": int(args.trace), "fingerprint": finger, "result": result,
                  "tail_percentile": int(tail.group(1)) if tail else None}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
