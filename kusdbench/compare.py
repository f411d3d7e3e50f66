#!/usr/bin/env python3
"""Compare benchmark records from two runs of kusdbench/run.py.

    python3 kusdbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds result records as run.py appends them to
.bench_build/records.jsonl. Records are grouped by (machine fingerprint,
workload, trace); a group is compared only when both files have records
with the same machine fingerprint. Records from different machines,
builds or SIMD tiers are never compared. For each metric the script
prints both medians, their quartiles and sample counts, and the change
of the medians as a share of the BEFORE median.
"""

import json
import statistics
import sys


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["machine_id"], record["workload"], record["trace"])
            groups.setdefault(key, []).append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    common = sorted(set(before) & set(after))
    for key in sorted(set(before) ^ set(after)):
        print(f"not compared (no record with the same fingerprint on the "
              f"other side): machine {key[0]} workload {key[1]} trace {key[2]}")
    if not common:
        sys.exit("no comparable records: the machine fingerprints differ")
    for key in common:
        machine, workload, trace = key
        print(f"\n{workload} (trace {trace}, machine {machine}): "
              f"{len(before[key])} vs {len(after[key])} runs")
        metrics = before[key][0]["result"]["metrics"]
        for name, meta in metrics.items():
            b = [r["result"]["metrics"][name]["value"] for r in before[key]]
            a = [r["result"]["metrics"][name]["value"] for r in after[key]
                 if name in r["result"]["metrics"]]
            if not a:
                print(f"  {name}: missing after")
                continue
            bq, aq = quartiles(b), quartiles(a)
            change = (aq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            print(f"  {name:>30} {meta['unit']:>6}: {bq[1]:.6g} "
                  f"[{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)} -> {aq[1]:.6g} "
                  f"[{aq[0]:.6g}, {aq[2]:.6g}] n={len(a)} ({change:+.1%})")


if __name__ == "__main__":
    main()
