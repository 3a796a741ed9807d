#!/usr/bin/env python3
"""Verdicts on benchmark result sets: improved, unchanged, unresolved or worse.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl   # verdict per workload x metric
    python3 bench/compare.py RESULTS.jsonl               # spread of one set against the bounds

Inputs are JSONL files of full records as ``run.py --out`` (or ``collect.py``)
writes them; only untraced records are read. Runs are paired by seed. For
each workload and end-to-end metric of BENCHMARK.json the verdict is:

- ``failed`` when any change run of the workload missed a correctness
  check (``error_rate`` above 0): no speed figure of such a run counts;
- ``unresolved`` when either side's spread (interquartile range over median)
  exceeds the metric's bound, unless every change run beats every parent
  run (``improved``) or loses to it (``worse``);
- ``improved`` when the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range, in the better direction; with fewer than ten pairs
  such a result is ``unresolved``;
- ``worse`` when the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
- ``unchanged`` otherwise.

The exit code is 1 when any verdict is ``worse`` or ``failed``, and, for one
result set, when any of its runs missed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def load_results(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values and ``error_rate``, from the untraced records."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        prov = rec["provenance"]
        if prov["trace"]:
            continue
        values = {k: m["value"] for k, m in rec["metrics"].items()}
        out[prov["workload"]][prov["seed"]] = {**values, "error_rate": rec["error_rate"]}
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (statistics' default method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            change_failed: bool = False) -> str:
    """Verdict for paired runs (``parent[i]`` and ``change[i]`` share a seed)."""
    if change_failed:
        return "failed"
    sign = 1.0 if better == "higher" else -1.0
    gain = [sign * (c - p) for p, c in zip(parent, change)]
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if spread(parent) > bound or spread(change) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "improved"
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "worse"
        return "unresolved"
    wins = sum(g > 0 for g in gain)
    if wins >= WIN_SHARE * len(gain) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved" if len(gain) >= MIN_PAIRS else "unresolved"
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse"
    return "unchanged"


def compare(parent_path: Path, change_path: Path, spec: list[dict]) -> list[dict]:
    parent, change = load_results(parent_path), load_results(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        failed = any(change[workload][s]["error_rate"] > 0 for s in seeds)
        for m in spec:
            p = [parent[workload][s][m["name"]] for s in seeds]
            c = [change[workload][s][m["name"]] for s in seeds]
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"], "pairs": len(seeds),
                "parent_median": quartiles(p)[1], "change_median": quartiles(c)[1],
                "parent_spread": spread(p), "change_spread": spread(c), "bound": m["bound"],
                "verdict": verdict(p, c, m["better"], m["bound"], failed),
            })
    return rows


def spread_table(path: Path, spec: list[dict]) -> list[dict]:
    """Median and spread of each workload x metric in one result set."""
    results = load_results(path)
    rows = []
    for workload in sorted(results):
        runs = list(results[workload].values())
        failed_runs = sum(r["error_rate"] > 0 for r in runs)
        for m in spec:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"], "runs": len(vals),
                "median": med, "q1": q1, "q3": q3, "spread": spread(vals), "bound": m["bound"],
                "failed_runs": failed_runs,
            })
    return rows


def print_spreads(rows: list[dict]) -> None:
    print(f"{'workload':20s} {'metric':20s} {'runs':>4s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for r in rows:
        if r["failed_runs"]:
            note = f" ({r['failed_runs']} RUNS FAILED CORRECTNESS)"
        elif r["spread"] < r["bound"] / 3:
            note = ""
        else:
            note = " (over bound/3)" if r["spread"] <= r["bound"] else " (OVER BOUND)"
        print(f"{r['workload']:20s} {r['metric']:20s} {r['runs']:4d} {r['median']:12.6g} "
              f"{r['spread']:8.4f} {r['bound']:6.3f} {r['unit']}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", type=Path, nargs="+", help="one result set, or PARENT then CHANGE")
    args = ap.parse_args(argv)
    if len(args.results) > 2:
        ap.error("give one result set, or two to compare")
    spec = load_benchmark()["end_to_end"]
    if len(args.results) == 1:
        rows = spread_table(args.results[0], spec)
        print_spreads(rows)
        return 1 if any(r["failed_runs"] for r in rows) else 0
    rows = compare(*args.results, spec)
    if not rows:
        ap.error("no untraced runs of the two sets share a workload and a seed")
    print(f"{'workload':20s} {'metric':20s} {'pairs':>5s} {'parent':>12s} {'change':>12s} "
          f"{'p.spread':>8s} {'c.spread':>8s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:20s} {r['metric']:20s} {r['pairs']:5d} {r['parent_median']:12.6g} "
              f"{r['change_median']:12.6g} {r['parent_spread']:8.4f} {r['change_spread']:8.4f} "
              f"{r['bound']:6.3f}  {r['verdict']}")
    return 1 if any(r["verdict"] in ("worse", "failed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
