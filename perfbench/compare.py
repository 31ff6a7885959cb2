"""Compare two sets of benchmark runs, for example a parent commit and a
change, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that `run.py --out FILE` appends, one JSON
object a line.  Untraced runs are compared on the end-to-end metrics of
BENCHMARK.json, with the bound stored there.  Runs pair up by seed.  A
verdict is one of:

  better      the change wins at least nine tenths of the pairs and the
              medians differ by more than the spread (third minus first
              quartile) of the base runs
  worse       the change's median is worse than the base median by more
              than the bound
  unchanged   neither, and both sides' spreads are within the bound
  unresolved  neither, a side's spread is wider than the bound, and not
              every run of the change reads better than every base run
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values, from the untraced records."""
    runs: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            values = {k: m["value"] for k, m in rec["metrics"].items()}
            runs.setdefault(rec["workload"], {})[rec["seed"]] = values
    return runs


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], pairs, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    mb, mc = statistics.median(base), statistics.median(change)
    gain = sign * (mc - mb)
    if -gain > bound * abs(mb):
        return "worse"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) >= 2 else (mb, mb, mb)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    worst_change = min(change) if sign > 0 else max(change)
    best_base = max(base) if sign > 0 else min(base)
    every_run_better = sign * (worst_change - best_base) > 0
    if (spread(base) > bound or spread(change) > bound) and not every_run_better:
        return "unresolved"
    return "unchanged"


def compare(base: dict, change: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        b, c = base[workload], change[workload]
        seeds = sorted(set(b) & set(c))
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r[name] for r in b.values()]
            cv = [r[name] for r in c.values()]
            pairs = [(b[s][name], c[s][name]) for s in seeds]
            v = verdict(bv, cv, pairs, m["better"], m["bound"])
            rows.append((workload, name, statistics.median(bv), statistics.median(cv),
                         len(bv), len(cv), m["bound"], v))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<16} {'metric':<14} {'base':>12} {'change':>12} {'runs':>7} {'bound':>6}  verdict")
    for w, name, mb, mc, nb, nc, bound, v in rows:
        print(f"{w:<16} {name:<14} {mb:>12.5g} {mc:>12.5g} {nb:>3}/{nc:<3} {bound:>6}  {v}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
