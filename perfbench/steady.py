#!/usr/bin/env python3
"""Steadiness report: run the benchmark on one workload with several seeds
and print, per metric, the median, the quartiles, the quartile spread as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --workload explore-jobs --runs 10
    python3 perfbench/steady.py --workload fleet-sim --runs 2 --trace 1

Quartiles follow statistics.quantiles(values, n=4), the rule the
acceptance check uses.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, walls, details = {}, [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.time() - t)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}\n{p.stdout[-2000:]}")
        res = json.loads(lines[-1])
        details.append(json.loads(lines[-2])["detail"])
        steal = details[-1].get("info", {}).get("steal_share")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={walls[-1]:.1f}s"
              + ("" if steal is None else f" steal={steal:.3f}") + " "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in sorted(res["metrics"].items())), flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    print(f"\n{args.workload}: {args.runs} runs, wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
    print(f"host: {details[0]['host']}")
    print(f"samples (first run): {details[0]['samples']}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for k in sorted(values):
        v = values[k]
        q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        flag = "" if b is None else (" OK" if spread < b / 3 else " WIDE")
        print(f"{k:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if b is None else format(b / 3, '8.3f')}{flag}")


if __name__ == "__main__":
    main()
