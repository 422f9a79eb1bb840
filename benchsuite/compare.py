#!/usr/bin/env python3
"""Compare two sets of fluxdiv_bench runs, workload by workload.

    python3 benchsuite/compare.py BASE_DIR CHANGE_DIR

Each directory holds the --json records of end-to-end runs (any number
per workload). Runs are paired in seed order, the i-th run of one side
with the i-th of the other. For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
share of pairs the change won, and a verdict:

  better        the change won at least 9/10 of the pairs and the medians
                differ by more than the base runs' quartile distance
  worse         the change's median is worse by more than the metric's bound
                (checked before "unresolved" when every change run is
                worse than every base run, however wide the spread)
  unresolved    the run-to-run spread is wider than the bound, so the
                difference cannot be told from noise
  within bound  none of the above

Exit status 1 when any row is worse.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """workload -> [metric name -> value], untraced runs in seed order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("traced") or "context" not in rec:
            continue
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return {w: [v for _, v in sorted(r, key=lambda sv: sv[0])]
            for w, r in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, lower_is_better, bound, pairs):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = -1.0 if lower_is_better else 1.0
    gain = sign * (cm - bm)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm))
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (c - b) < 0 for c in change for b in base)
    worse_than_bound = -gain > bound * abs(bm)
    if won >= 0.9 and gain > (b3 - b1):
        return "better", won, spread
    if all_worse and worse_than_bound:
        return "worse", won, spread
    if spread > bound and not all_better:
        return "unresolved", won, spread
    if worse_than_bound:
        return "worse", won, spread
    return "within bound", won, spread


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(sys.argv[1]), load(sys.argv[2])
    worse = 0
    print(f"{'workload':<11} {'metric':<18} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'delta':>7} {'won':>5} "
          f"{'spread':>7}  verdict")
    for workload in sorted(set(base) & set(change)):
        for m in metrics:
            name = m["name"]
            b = [r[name] for r in base[workload]]
            c = [r[name] for r in change[workload]]
            pairs = list(zip(b, c))
            v, won, spread = verdict(b, c, m["better"] == "lower",
                                     m["bound"], pairs)
            worse += v == "worse"
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:<11} {name:<18} "
                  f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<32} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<32} "
                  f"{(cm / bm - 1) * 100:>+6.1f}% {won:>5.2f} "
                  f"{spread * 100:>6.1f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
