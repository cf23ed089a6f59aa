#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and print, per
metric, the median, the quartiles and the quartile spread as a share of
the median, next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]

Run from the root of a source checkout.  Each run is
`python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS
--trace 0`, for every workload W.  Exits 1 if a run fails or is
incorrect, or if a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description="Benchmark steadiness check.")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, ok = {}, True
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = bench["command"] + ["--workload", w, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]),
                                       "--trace", "0"]
            r = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, r.returncode))
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            runs[w].append(res)
            ok = ok and res["correct"]
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, res["correct"], res["attempted"], res["failed"]),
                  flush=True)
    for w, rs in runs.items():
        if not rs:
            continue
        shares = {r["failed"] / r["attempted"] for r in rs}
        print("\n%s: %d runs, failed shares %s" % (w, len(rs), sorted(shares)))
        print("  %-32s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag, ok = " OVER", False
            elif spread > bound / 3:
                flag = " >1/3"
            print("  %-32s %14.6g %14.6g %14.6g %8.4f %6s%s" %
                  (name, q1, med, q3, spread, bound, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
