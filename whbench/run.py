#!/usr/bin/env python3
"""Build the warehouse benchmark from source and run one workload.

Usage, from the repository root:

    python3 whbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: compute_native, derive_views, serve_mixed (see whbench/NOTES.md).
The engine and the benchmark program build into $CARGO_TARGET_DIR, or .bench_build when
unset; the build log goes to build.log there. Each run re-configures and
rebuilds what changed, about a second when nothing did. The program prints
one line per metric and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The exit status is the program's: 0
when every
result was correct, 1 when one was wrong; a failed build exits 1 without a
result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compute_native", "derive_views", "serve_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and brings the program up to date. Returns its path."""
    # Compiler temporaries go inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "whbench", "-j", jobs]]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("whbench: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "whbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(build_dir, "spans_%s.csv" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("whbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
