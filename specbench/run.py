#!/usr/bin/env python3
"""Build the replay benchmark from source and run one workload.

    python3 specbench/run.py --workload fig4-disk --seed 42 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
engine library and the benchmark (CMake, Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs only re-check the build. The benchmark's standard output is passed
through, so its last line is the JSON result; build output goes to
standard error. The exit code is the benchmark's: 0 only when every
check passed. Without the engine sources next to this directory the
build fails and nothing is run.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """Time allowed for one run: its whole rounds can overrun --seconds
    by up to one round, plus the set-ups and the checks."""
    return 2 * seconds + 120


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def call(cmd, stdout, timeout):
    """Run cmd in its own process group; on timeout, SIGTERM or SIGINT
    kill the whole group (make and compiler children included) and wait
    for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)

    def stop(signum=None, frame=None):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if signum is not None:
            sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        raise
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def build(out_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("specbench: engine sources not found under " + ROOT)
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        # Concurrent runs in one checkout build once, one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            try:
                code = call(cmd, sys.stderr, BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                sys.exit("specbench: build step failed: %s" % err)
            if code != 0:
                sys.exit("specbench: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "specbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    timeout = run_timeout(args.seconds)
    try:
        code = call(cmd, sys.stdout, timeout)
    except subprocess.TimeoutExpired:
        sys.exit("specbench: run exceeded %d s" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
