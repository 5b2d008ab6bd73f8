"""Compare two sets of benchmark runs metric by metric.

Usage::

    python bench/compare.py A.json B.json

``A.json`` and ``B.json`` are files ``bench/run.py --out`` appended runs
to (several seeds each; traced and smoke runs are skipped).  For every
workload and end-to-end metric the verdict uses the metric's direction
and bound from ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread of either set (distance between
  the first and third quartile, as a share of the median) exceeds the
  bound, unless every run of B is better than every run of A; also when
  a set has fewer than three runs;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better by more than A's spread and B wins
  at least nine tenths of all (A, B) run pairs;
* ``unchanged`` — otherwise.

Exits 1 when any pair is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a)
    wins = sum(sign * (y - x) < 0 for x in a for y in b)
    if (max(spread(a), spread(b)) > bound
            and wins < len(a) * len(b)):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread(a) and wins >= 0.9 * len(a) * len(b):
        return "improved"
    return "unchanged"


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per correct untraced run]}}``."""
    with open(path) as handle:
        records = json.load(handle)
    out: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for record in records:
        if record["trace"] or record["smoke"] or not record["correct"]:
            continue
        for name, metric in record["metrics"].items():
            out[record["workload"]][name].append(metric["value"])
    return out


def compare(a_path: str, b_path: str, spec: dict) -> List[dict]:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        for metric in spec["end_to_end"]:
            a = a_runs[workload][metric["name"]]
            b = b_runs[workload][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "runs": (len(a), len(b)),
                "a": statistics.median(a) if a else float("nan"),
                "b": statistics.median(b) if b else float("nan"),
                "spread": (spread(a) if len(a) >= 2 else float("nan"),
                           spread(b) if len(b) >= 2 else float("nan")),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"],
                                   metric["bound"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="runs of the base")
    parser.add_argument("b", help="runs of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(args.a, args.b, spec)
    print(f"{'workload':<13} {'metric':<16} {'A median':>11} "
          f"{'B median':>11} {'change':>8} {'spread A/B':>13} "
          f"{'bound':>6}  verdict")
    for row in rows:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0
        spreads = "/".join(f"{s:.3f}" for s in row["spread"])
        print(f"{row['workload']:<13} {row['metric']:<16} "
              f"{row['a']:>11.5g} {row['b']:>11.5g} {change:>+8.1%} "
              f"{spreads:>13} {row['bound']:>6.2f}  {row['verdict']}"
              f"  ({row['runs'][0]}/{row['runs'][1]} runs)")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
