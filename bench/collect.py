#!/usr/bin/env python3
"""Run the benchmark over many seeds and collect the records into JSONL.

    # ten seeds of every workload, then the spread of each metric
    python3 bench/collect.py --seeds 1-10 --out bench/results/timed.jsonl

    # alternating pairs of two source trees, measured by this benchmark code
    python3 bench/collect.py --seeds 1-10 --out bench/results/parent.jsonl \
        --src-b ../change/src --out-b bench/results/change.jsonl
    python3 bench/compare.py bench/results/parent.jsonl bench/results/change.jsonl

Every run measures for BENCHMARK.json's ``run_seconds``, on every workload.
Each run is a separate process that runs one workload, one after the
other, never two at once. With ``--src-b`` the two sides alternate which
runs first from one seed to the next. A run that exits non-zero is
reported and its record (if any) is kept.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import compare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = compare.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--src-b", type=Path, default=None, help="second source tree, run in alternation")
    ap.add_argument("--out-b", type=Path, default=None)
    args = ap.parse_args(argv)
    if (args.src_b is None) != (args.out_b is None):
        ap.error("--src-b and --out-b go together")

    sides = [(args.src, args.out)] + ([(args.src_b, args.out_b)] if args.src_b else [])
    bad = 0
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for workload in (w["name"] for w in spec["workloads"]):
            for src, out in sides if k % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace), "--src", str(src), "--out", str(out)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{workload} seed={seed} src={src} exit={proc.returncode} {last[0][:120]}",
                      flush=True)
                if proc.returncode != 0:
                    bad += 1
                    sys.stderr.write(proc.stderr[-2000:])
    if not args.trace:
        for _, out in sides:
            print(f"\n{out}")
            compare.print_spreads(compare.spread_table(out, spec["end_to_end"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
