#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads plan-cold,train-step --seeds 1-10

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles with n=4) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json; a
spread at or above a third of the bound is flagged. Each run's host stamp
is printed once per workload. Exits nonzero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            if seed == args.seeds[0]:
                stamp = [l for l in lines if l.startswith("stamp ")]
                print(stamp[0] if stamp else "stamp missing")
            res = json.loads(lines[-1])
            if not res["correct"]:
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: {len(args.seeds)} seeds, {seconds}s each, trace {args.trace}")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and not spread < b / 3:
                flag = "  <-- spread >= bound/3"
            bs = f"{b:6.2f}" if b is not None else "     -"
            print(f"  {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bs}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
