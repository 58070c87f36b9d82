#!/usr/bin/env python3
"""Self-test of the pipeline benchmark's output checks.

Runs every workload briefly twice from the repository root:

  * as is: must exit 0 with "correct": true and no failed operation;
  * with --plant-mismatch, which corrupts one pass digest (fig4_sweep,
    pe_scaling) or one server answer (serve_mix): must exit 1 with
    "correct": false and at least one failed operation.

It also checks that the metric names each run prints are exactly the
ones BENCHMARK.json lists (end_to_end untraced, per_layer traced).

    python3 pipebench/selftest.py [--seconds 2]
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig4_sweep", "pe_scaling", "serve_mix")


def run(workload, seconds, trace=0, plant=False):
    cmd = [sys.executable, os.path.join("pipebench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd.append("--plant-mismatch")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}

    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, res = run(w, args.seconds, trace)
            expect(code == 0 and res and res["correct"] and res["failed"] == 0,
                   f"{w} trace={trace}: clean run passes its checks")
            expect(res is not None and set(res["metrics"]) == names[trace],
                   f"{w} trace={trace}: prints exactly the BENCHMARK.json metrics")
        code, res = run(w, args.seconds, plant=True)
        expect(code == 1 and res and not res["correct"] and res["failed"] >= 1,
               f"{w}: a planted digest mismatch is reported as failed")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
