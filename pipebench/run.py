#!/usr/bin/env python3
"""Build the pipeline benchmark program and run one workload.

Run from the repository root:

    python3 pipebench/run.py --workload pe_scaling --seed 7 --seconds 20 --trace 0

The program is configured and built on first use under
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench); later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is always the program's JSON result. The exit code is the program's:
0 when every output check passed, 1 when one failed, 2 on a usage or
build error (then no result is printed).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4_sweep", "pe_scaling", "serve_mix")
DEFAULT_SEED = 7  # README.md names the held-out seed


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="corrupt one output digest (self-test of the checks)")
    args = ap.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "pipebench")
    if not build(build_dir):
        print("pipebench: build failed", file=sys.stderr)
        return 2
    # A relative out dir keeps the server's unix socket path short.
    out_dir = os.path.relpath(build_dir, ROOT)
    cmd = [os.path.join(build_dir, "pipebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
