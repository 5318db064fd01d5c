#!/usr/bin/env python3
"""Steadiness command: is the benchmark repeatable on this host?

Runs every workload of BENCHMARK.json --runs times through perfbench/run.py,
one seed per run (seed-base, seed-base+1, ...), reversing the workload order
on every other round so that slow drift of the host does not land on one
workload. With --second-seed-base it then takes a second set of runs at
other seeds and compares the two sets' medians. With --same-seed every run
uses seed-base: the spreads are then timing noise alone, and the metrics the
seed fixes, and each run's window trajectory, must repeat.

For each workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3-q1)/median and the largest
deviation from the median, and flags a spread above the metric's bound
("OVER") or above a third of it ("near"). setup_s is exempt from the spread
rule but not from the median comparison. It also checks that every run was
correct and that the share of failed operations is the same in every run.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads tweet-lpa --seed-base 100
    python3 perfbench/steady.py --runs 5 --same-seed --seed-base 7
    python3 perfbench/steady.py --runs 10 --second-seed-base 1000
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Fixed by the seed: with --same-seed they must be equal in every run.
SEED_FIXED = ("cut_ratio", "migrations", "remote_msg_frac")
# ckpt_mb is fixed by the seed too, except that the checkpoint's timeline
# file stores each window's wall seconds as text, whose length varies by a
# character or so per window.
CKPT_TEXT_TOLERANCE = 2e-3


def run_once(config, workload, seed):
    command = config["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(config["run_seconds"]),
                                   "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    took = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = took
    result["trajectory"] = next((line.split(":", 1)[1].strip()
                                 for line in proc.stderr.splitlines()
                                 if line.startswith("trajectory:")), None)
    return result


def take_set(config, workloads, runs, seed_base, same_seed):
    """{workload: [result, ...]} over `runs` rounds."""
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = seed_base if same_seed else seed_base + i
        for workload in order:
            result = run_once(config, workload, seed)
            results[workload].append(result)
            print(f"  {workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']}", flush=True)
    return results


def check_repeats(runs):
    """Runs at one seed: the seed-fixed metrics and the trajectory must
    repeat. Returns the number of problems."""
    problems = 0
    for name in SEED_FIXED:
        values = {r["metrics"][name]["value"] for r in runs}
        if len(values) != 1:
            print(f"  PROBLEM: {name} differs between runs at one seed: {sorted(values)}")
            problems += 1
    ckpt = [r["metrics"]["ckpt_mb"]["value"] for r in runs]
    if (max(ckpt) - min(ckpt)) / max(ckpt) > CKPT_TEXT_TOLERANCE:
        print(f"  PROBLEM: ckpt_mb differs between runs at one seed: {ckpt}")
        problems += 1
    trajectories = {r["trajectory"] for r in runs}
    if len(trajectories) != 1 or None in trajectories:
        print(f"  PROBLEM: window trajectories differ between runs: {sorted(map(str, trajectories))}")
        problems += 1
    return problems


def report(config, results, same_seed):
    """Prints the per-metric table; returns the number of problems."""
    specs = config["end_to_end"]
    problems = 0
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, wall "
              f"{min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs):
            print("  PROBLEM: a run reported correct=false")
            problems += 1
        if len(shares) != 1:
            print(f"  PROBLEM: failed share differs between runs: {sorted(shares)}")
            problems += 1
        if same_seed:
            problems += check_repeats(runs)
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'maxdev':>9}  bound")
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) != len(runs):
                print(f"  PROBLEM: {name} missing from some runs")
                problems += 1
                continue
            units = {r["metrics"][name]["unit"] for r in runs}
            if units != {spec["unit"]}:
                print(f"  PROBLEM: {name} unit {units} != {spec['unit']}")
                problems += 1
            q1, med, q3 = stats.quartiles(values)
            spread = stats.spread(values)
            bound = spec["bound"]
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag = "OVER"
                    problems += 1
                elif spread > bound / 3:
                    flag = "near"
            if med == 0:
                flag = "ZERO"
                problems += 1
            print(f"  {name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{stats.max_deviation(values):>9.3f}  {bound} {flag}")
    return problems


def compare(config, first, second):
    """Second set's medians may not be worse than the first's by more than
    the bound; returns the number of problems."""
    problems = 0
    print("\nsecond set vs first (worsening of the median, share of the first):")
    for workload in first:
        for spec in config["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in first[workload]]
            b = [r["metrics"][name]["value"] for r in second[workload]]
            worse = stats.worsening(a, b, spec["better"])
            flag = "OVER" if worse > spec["bound"] else ""
            problems += 1 if flag else 0
            print(f"  {workload:<12}{name:<18}{worse:>+9.3f}  bound {spec['bound']} {flag}")
        sa = {r["failed"] / r["attempted"] for r in first[workload]}
        sb = {r["failed"] / r["attempted"] for r in second[workload]}
        if sa != sb:
            print(f"  PROBLEM: {workload} failed share {sorted(sa)} vs {sorted(sb)}")
            problems += 1
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--second-seed-base", type=int)
    parser.add_argument("--same-seed", action="store_true",
                        help="every run at --seed-base (and --second-seed-base)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    last = args.seed_base if args.same_seed else args.seed_base + args.runs - 1
    print(f"set 1: seeds {args.seed_base}..{last}")
    first = take_set(config, workloads, args.runs, args.seed_base, args.same_seed)
    problems = report(config, first, args.same_seed)
    if args.second_seed_base is not None:
        print(f"\nset 2: seeds from {args.second_seed_base}")
        second = take_set(config, workloads, args.runs, args.second_seed_base,
                          args.same_seed)
        problems += report(config, second, args.same_seed)
        problems += compare(config, first, second)
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
