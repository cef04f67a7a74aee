#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 1]

Each file holds the records `run.py --record FILE` appends, one run per
line. For every workload in both sets and every metric of BENCHMARK.json
(end-to-end, or per-layer with --trace 1) it prints each side's median
and quartiles, how many seed-paired runs NEW wins, and a verdict:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, and NEW does not
              beat every BASE run
  gain        NEW wins at least 9 of 10 pairs and the medians differ by
              more than BASE's own quartile spread
  ok          none of the above: no worse than the bound allows

Per-layer metrics have no bound and only get medians and wins. Runs with
wrong match counts are reported per side. Exits 1 if any metric is worse
or any run was incorrect.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Distance between the quartiles, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(base, new):
    """(base, new) values of runs with the same seed; by position when
    the two sets share no seed."""
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return matched or list(zip(base, new))


def verdict(metric, base_values, new_values, paired):
    """Returns (verdict, wins, number of decided pairs)."""
    higher = metric["better"] == "higher"

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(1 for b, n in paired if better(n, b))
    decided = sum(1 for b, n in paired if n != b)
    bound = metric.get("bound")
    if bound is None:
        return "-", wins, decided
    _, base_med, _ = quartiles(base_values)
    _, new_med, _ = quartiles(new_values)
    if max(spread(base_values), spread(new_values)) > bound:
        beats_all = (min(new_values) > max(base_values) if higher
                     else max(new_values) < min(base_values))
        return ("gain" if beats_all else "unresolved"), wins, decided
    worse_by = (base_med - new_med if higher else new_med - base_med)
    if worse_by > bound * abs(base_med):
        return "worse", wins, decided
    q1, _, q3 = quartiles(base_values)
    if (paired and wins >= 0.9 * len(paired)
            and abs(new_med - base_med) > q3 - q1):
        return "gain", wins, decided
    return "ok", wins, decided


def compare(base, new, declared, trace):
    """Prints the comparison table; returns the number of failures."""
    failures = 0
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload
             and r["trace"] == trace]
        n = [r for r in new if r["workload"] == workload
             and r["trace"] == trace]
        if not b or not n:
            continue
        print("workload %s: %d base runs, %d new runs" % (
            workload, len(b), len(n)))
        for side, runs in (("base", b), ("new", n)):
            wrong = [r["seed"] for r in runs if not r["correct"]]
            if wrong:
                failures += 1
                print("  %s: incorrect runs at seeds %s" % (side, wrong))
        print("  %-30s %-8s %26s %26s %7s  %s" % (
            "metric", "unit", "base q1/median/q3", "new q1/median/q3",
            "wins", "verdict"))
        paired_runs = pairs(b, n)
        for metric in declared:
            name = metric["name"]
            base_values = [r["metrics"][name] for r in b]
            new_values = [r["metrics"][name] for r in n]
            paired = [(x["metrics"][name], y["metrics"][name])
                      for x, y in paired_runs]
            result, wins, decided = verdict(metric, base_values, new_values,
                                            paired)
            if result == "worse":
                failures += 1
            print("  %-30s %-8s %26s %26s %3d/%-3d  %s" % (
                name, metric["unit"],
                "/".join("%.4g" % v for v in quartiles(base_values)),
                "/".join("%.4g" % v for v in quartiles(new_values)),
                wins, decided, result))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    failures = compare(load(args.base), load(args.new), declared, args.trace)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
