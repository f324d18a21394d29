#!/usr/bin/env python3
"""Run one workload under several seeds and report, for every end-to-end
metric, the median, the quartiles and the spread (interquartile distance
over the median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --workload fig11-batch --seeds 1-10

The raw per-run results are also written to
.bench_build/steadiness/<workload>-seeds<range>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

OUT_DIR = os.path.join(".bench_build", "steadiness")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    runs = []
    for seed in seeds_of(a.seeds):
        t0 = time.perf_counter()
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            sys.exit("seed %d: exit %d" % (seed, r.returncode))
        result = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append(result)
        print("seed %-4d %6.1fs correct=%s attempted=%d failed=%d"
              % (seed, time.perf_counter() - t0, result["correct"], result["attempted"],
                 result["failed"]), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print("%-24s %12s %12s %12s %7s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        print("%-24s %12.6g %12.6g %12.6g %7.3f %6.2f"
              % (name, q1, statistics.median(v), q3, (q3 - q1) / statistics.median(v),
                 bounds[name]))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seeds%s.json" % (a.workload, a.seeds)), "w") as f:
        json.dump({"workload": a.workload, "seeds": seeds_of(a.seeds), "values": values,
                   "runs": runs}, f)


if __name__ == "__main__":
    main()
