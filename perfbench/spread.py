#!/usr/bin/env python3
"""Spread of a set of untraced runs, normalised beside raw.

    python3 perfbench/spread.py perfbench/out/result-*-trace0.json

Groups the result files by workload and prints, per metric, the median
of the runs and the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, for the
reported (reference-speed) figures and for the raw wall-clock ones.
"""

import json
import statistics
import sys
from collections import defaultdict


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        runs[data["header"]["workload"]].append(data)
    print(f"{'workload':20} {'runs':>4} {'metric':12} {'median':>10} "
          f"{'spread':>7} {'raw median':>10} {'raw spread':>10}")
    for name in sorted(runs):
        group = runs[name]
        for metric in group[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][metric]["value"] for r in group]
            raw = [r["raw"][metric] for r in group if metric in r["raw"]]
            line = (f"{name:20} {len(vals):4} {metric:12} "
                    f"{statistics.median(vals):10.4f} {spread(vals):7.1%}")
            if len(raw) == len(vals):
                line += f" {statistics.median(raw):10.4f} {spread(raw):10.1%}"
            print(line)
        failed = {r["result"]["failed"] / r["result"]["attempted"] for r in group}
        print(f"{name:20} failed share(s): {sorted(failed)}")


if __name__ == "__main__":
    main(sys.argv[1:])
