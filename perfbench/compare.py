#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py parent.log change.log

Each log is the concatenated stdout of ``run.py`` runs; the ``{"report": ...}``
lines are read, grouped by workload and trace mode, and every metric gets
each side's median and quartiles.  End-to-end metrics also get a verdict
under the bound BENCHMARK.json fixes for them:

- unresolved: the two sides ran different kernel backends (a 50x change of
  speed that no code change made), or the parent's own spread is wider than
  the bound and not every change run beats every parent run;
- regression: the change's median is worse than the parent's by more than
  the bound;
- gain: the change wins at least nine tenths of the run pairs (runs paired
  in file order) and the medians differ by more than the parent's spread;
- same: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict:
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"report"'):
            report = json.loads(line)["report"]
            runs[(report["workload"], report["trace"])].append(report)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, bound, lower_is_better, backends) -> str:
    if len(backends) > 1:
        return "unresolved (backends " + " vs ".join(sorted(backends)) + ")"
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = spread(parent)
    c_med = statistics.median(change)
    worse = sign * (c_med - p_med) / p_med
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved (parent spread wider than the bound)"
    if worse > bound:
        return f"regression ({worse:+.1%}, bound {bound:.0%})"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return f"gain ({-worse:+.1%}, {wins}/{len(pairs)} pairs)"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        backends = {r["manifest"]["backend"] for r in p_runs + c_runs}
        print(f"== {key[0]} (trace {key[1]}): {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for name in sorted(p_runs[0]["metrics"]):
            p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            unit = p_runs[0]["metrics"][name]["unit"]
            p_q1, p_med, p_q3 = spread(p_vals)
            c_q1, c_med, c_q3 = spread(c_vals)
            line = (f"   {name:<30} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                    f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {unit}")
            if name in bounds:
                m = bounds[name]
                line += "  " + verdict(p_vals, c_vals, m["bound"], m["better"] == "lower",
                                       backends)
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
