#!/usr/bin/env python3
"""Per-layer time shares of one traced run.

Reads the span file a --trace 1 run writes
(.bench_build/perfbench-out/trace-<workload>-<seed>.json) and prints, per
span name, the call count, total time, self time (the span's duration minus
the part its child spans cover) and self time as a share of all top-level
spans' time.

    python3 perfbench/phases.py .bench_build/perfbench-out/trace-churn-serve-1.json
"""
import collections
import json
import sys


def self_times(spans):
    """{name: (count, total_s, self_s)} and the summed top-level time."""
    child_time = collections.defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0])
    top = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        row = rows[span["name"]]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[span["id"]]
        if span["parent"] < 0:
            top += duration
    return rows, top


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spans = json.load(f)["spans"]
    rows, top = self_times(spans)
    print(f"{'span':<24}{'calls':>8}{'total s':>11}{'self s':>11}{'self share':>12}")
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<24}{count:>8}{total:>11.4f}{own:>11.4f}{own / top:>11.1%}")
    print(f"{'(top-level spans)':<24}{'':>8}{top:>11.4f}")


if __name__ == "__main__":
    main()
