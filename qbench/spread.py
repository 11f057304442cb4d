#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds 1 to 10.

    python3 qbench/spread.py --label A

Runs ``run.py`` once per workload and seed 1 to 10 (one at a time, with
the run length of BENCHMARK.json), then prints for each workload and metric the
median, the quartiles and the distance between the quartiles as a share of
the median, next to the metric's bound.  The runs and the table are saved
to ``qbench/out/spread-<label>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, table = {}, {}
    for workload in WORKLOADS:
        runs[workload] = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs[workload].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            table[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": (q3 - q1) / med, "bound": bound}
        shares = {r["failed"] / r["attempted"] for r in runs[workload]}
        table[f"{workload}/failed_share"] = sorted(shares)
    for key, row in table.items():
        if isinstance(row, dict):
            print(f"{key:24s} median {row['median']:9.4f}  q1 {row['q1']:9.4f}  "
                  f"q3 {row['q3']:9.4f}  spread {row['spread']:.3f}  bound {row['bound']}")
        else:
            print(f"{key:24s} {row}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump({"seeds": list(SEEDS), "table": table, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
