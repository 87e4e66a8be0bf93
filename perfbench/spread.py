#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median
and its spread: the distance between the first and third quartile as a
share of the median, the figure BENCHMARK.json's bounds are set against.

Run from the repository root:

    python3 perfbench/spread.py --workloads corpus-verdicts,compute-loops \
        --seeds 1-10 [--trace 0] [--out runs.jsonl]

Builds go to $CARGO_TARGET_DIR, by default .bench_build. Each run's
result line is appended to --out when given, so two sets of
runs (for example a parent commit and a change) can be compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            env = dict(os.environ)
            env.setdefault("CARGO_TARGET_DIR", ".bench_build")
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, env=env)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            host = next((l for l in out.stdout.splitlines() if l.startswith("host: ")), "")
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {host}", flush=True)
            ok &= result["correct"]
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:16s} {name:32s} median={med:<12.6g} spread={spread:.4f} "
                  f"bound={bound} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
