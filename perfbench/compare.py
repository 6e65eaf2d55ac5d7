"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric found in both files this prints
each side's median and quartiles and a verdict:

- better: the change wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- unresolved: the parent's own quartile spread, as a share of its median,
  is wider than the metric's bound, and not every run of the change reads
  better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound (for failed_frac: any increase);
- within bound: otherwise.

Runs are paired by seed when both sides ran the same seeds, else in file
order.  Bounds and directions come from BENCHMARK.json; the item latencies
and failed_frac, which BENCHMARK.json does not list, use the values below.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

EXTRA = {
    "item_p50_ms": {"better": "lower", "bound": 0.25},
    "item_p90_ms": {"better": "lower", "bound": 0.25},
    "failed_frac": {"better": "lower", "bound": 0.0},
}


def load_runs(path):
    """{workload: [record, ...]} for the untraced runs in a --out file."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if r["metrics"][metric]["value"] is not None]


def pairs(base, change, metric):
    by_seed_b = {r["seed"]: r for r in base}
    by_seed_c = {r["seed"]: r for r in change}
    common = sorted(set(by_seed_b) & set(by_seed_c))
    if len(common) == min(len(base), len(change)):
        matched = [(by_seed_b[s], by_seed_c[s]) for s in common]
    else:
        matched = list(zip(base, change))
    return [(b["metrics"][metric]["value"], c["metrics"][metric]["value"]) for b, c in matched
            if b["metrics"][metric]["value"] is not None and c["metrics"][metric]["value"] is not None]


def verdict(base_vals, change_vals, paired, better, bound):
    sign = 1 if better == "lower" else -1
    b1, bmed, b3 = quartiles(base_vals)
    cmed = statistics.median(change_vals)
    wins = sum(1 for b, c in paired if sign * (b - c) > 0)
    gain = sign * (bmed - cmed)
    if paired and wins >= 0.9 * len(paired) and gain > (b3 - b1):
        return "better", wins
    if bound == 0.0:
        return ("worse" if gain < 0 else "within bound"), wins
    all_better = all(sign * (b - c) > 0 for b in base_vals for c in change_vals)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(bmed):
        return "worse", wins
    return "within bound", wins


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare.py PARENT.jsonl CHANGE.jsonl")
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    spec.update(EXTRA)
    base, change = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':<15} {'metric':<12} {'parent q1/median/q3':>30} {'change q1/median/q3':>30}"
          f" {'pairs won':>9}  verdict")
    worse = False
    for workload in sorted(set(base) & set(change)):
        for metric, rule in spec.items():
            if metric not in base[workload][0]["metrics"] or metric not in change[workload][0]["metrics"]:
                continue
            bv, cv = values(base[workload], metric), values(change[workload], metric)
            if not bv or not cv:
                continue
            paired = pairs(base[workload], change[workload], metric)
            word, wins = verdict(bv, cv, paired, rule["better"], rule["bound"])
            worse |= word == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<15} {metric:<12} {fmt.format(*quartiles(bv)):>30} "
                  f"{fmt.format(*quartiles(cv)):>30} {wins:>4}/{len(paired):<4}  {word}"
                  + ("  (fewer than 10 pairs)" if len(paired) < 10 else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
