#!/usr/bin/env python3
"""Compare two sets of benchmark runs (standard library only).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl            # spread of one set

Each file holds the run records perfbench/run.py appends (one JSON object a
line; --trace 0 records carry the end-to-end metrics). For every workload and
end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles, and for two sets a verdict against the metric's bound:

  worse      the new median is worse than the base median by more than the
             bound;
  better     the new median is better by more than the base's own spread
             (interquartile range over median) and the new run wins at least
             nine tenths of the runs paired in file order;
  within     neither;
  unresolved either set's spread is wider than the bound, unless every new
             run is better (better) or worse (worse) than every base run.

With one file it prints each spread as a share of the bound. Runs of the same
seed in both files must have equal determinism digests; any difference is
listed. Exit status: 1 when any verdict is worse or any digest differs.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                record = json.loads(line)
                if "workload" in record and record.get("trace") == 0:
                    runs.append(record)
    return runs


def load_spec():
    for root in (os.getcwd(), os.path.dirname(HERE)):
        path = os.path.join(root, "BENCHMARK.json")
        if os.path.isfile(path):
            with open(path) as f:
                return json.load(f)
    sys.exit("compare: BENCHMARK.json not found")


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def gain(base, new, better):
    """Relative improvement of `new` over `base` (positive = better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "higher" else -change


def verdict(base, new, metric):
    bound, better = metric["bound"], metric["better"]
    med_b, med_n = summary(base)[1], summary(new)[1]
    g = gain(med_b, med_n, better)
    all_better = all(gain(b, n, better) > 0 for b in base for n in new)
    all_worse = all(gain(b, n, better) < 0 for b in base for n in new)
    if spread(base) > bound or spread(new) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if g < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if gain(b, n, better) > 0)
    if g > spread(base) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def fmt(v):
    return "%.6g" % v


def digest_differences(base, new):
    seen = {}
    for r in base:
        seen.setdefault((r["workload"], r["seed"]), r["digests"]["workload"])
    diffs = []
    for r in new:
        key = (r["workload"], r["seed"])
        if key in seen and seen[key] != r["digests"]["workload"]:
            diffs.append("%s seed %d: %s != %s" % (key + (seen[key], r["digests"]["workload"])))
    return diffs


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    sets = [by_workload(load_runs(p)) for p in argv[1:]]
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if any(workload not in s for s in sets):
            print("%s: no runs in %s" % (workload, " and ".join(
                p for p, s in zip(argv[1:], sets) if workload not in s)))
            continue
        counts = "/".join(str(len(s[workload])) for s in sets)
        print("%s (%s runs)" % (workload, counts))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cols = []
            values = [[r["metrics"][name] for r in s[workload]] for s in sets]
            for v in values:
                q1, med, q3 = summary(v)
                cols.append("median %s [q1 %s, q3 %s] spread %.3f" % (fmt(med), fmt(q1), fmt(q3), spread(v)))
            if len(sets) == 1:
                share = spread(values[0]) / metric["bound"]
                note = "spread %.2f of bound %.2f" % (share, metric["bound"])
            else:
                v = verdict(values[0], values[1], metric)
                failed |= v == "worse"
                g = gain(summary(values[0])[1], summary(values[1])[1], metric["better"])
                note = "%s (%+.1f%%, bound %.0f%%)" % (v, 100 * g, 100 * metric["bound"])
            print("  %-18s %s  -> %s" % (name, " | ".join(cols), note))
    if len(sets) == 2:
        base = [r for s in sets[:1] for rs in s.values() for r in rs]
        new = [r for s in sets[1:] for rs in s.values() for r in rs]
        diffs = digest_differences(base, new)
        print("digests: %d differ" % len(diffs))
        for d in diffs:
            print("  " + d)
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
