#!/usr/bin/env python3
"""Byte-identity gate: this checkout's CLI output against a reference revision.

    python3 scripts/check_identity.py              # against HEAD
    python3 scripts/check_identity.py --ref main~1

The reference revision is exported with ``git archive`` into a temporary
directory. Both source trees then run the same cases at the default stream
length:

- ``run --scenario N --seed S`` for presets 1-3 and seeds 1-5, writing the
  JSON report and the ``--records`` JSONL;
- one multi-centroid configuration (16 partitions, alpha 5, threshold 4.0,
  outlier k 1.35, refresh every 50 inserts), so that synopses hold many
  centroids and the outlier weighting fires, which the presets never do;
- the same configuration at outlier k 2.45 and 2.44, just above and just
  below sqrt(6), the k from which the router skips the outlier rule for
  three metrics, so that both paths score hundreds of rows per call, and
  at outlier k 0.5, where a row can flag all three outcomes and so weighs
  them uniformly;
- the same configuration without outlier k, refreshing on every insert
  (seed 2), so that leaf entries cross alpha while the stream runs and
  every crossing is published at once;
- preset 2 at alpha 1 (seed 3), where every leaf entry is dominant from
  the moment it is created;
- preset 1 at alpha 2 and threshold 4.0 (seed 8), which publishes hundreds
  of dominant entries on every insert, many of them tied at count 2, and
  ``validate`` in the same configuration (seed 9), whose audit reads them;
- a custom stream of 5000 vectors with mean 0 and std 5 (seed 6): about
  half of its components are clamped to 0, so the metrics take the
  minimum and absolute difference at zero (all-zero rows are redrawn, so
  no streamed vector sums to 0);
- ``run`` and ``validate`` seeded from ``tests/fixtures/zero_rows.csv``
  (3 partitions, alpha 3, threshold 12.0), a quarter of whose rows are all
  zero: they absorb into dominant entries, so all-zero centroid rows stay
  published and every ingest scores on the kernel's guarded path, while
  the stream still spreads over all three partitions;
- preset 2 refreshing every 3 inserts (seed 4), so that the message count
  in the JSON report comes from a batched refresh schedule;
- ``validate --seed 9``, once as is, once refreshing every 7 inserts and
  once in the multi-centroid configuration, whose audits check hundreds of
  published rows;
- branching factor 3 (presets 1 and 2, the alpha-crossing configuration
  and ``validate --seed 9``), so that trees grow deep and a node splits
  every few inserts, and branching factor 16 (presets 3 and 1 and the
  multi-centroid configuration), so that split groups hold up to 16
  entries and preset 1's root fallback folds up to 16 root entries;
- ``validate --seed 9`` at threshold 1.0 with 3000 initial vectors per
  partition, whose audit walks trees of thousands of entries per level;
- the ``--help`` text of ``run``, ``validate`` and ``stats``;
- ``run`` with one bad setting each, which must exit 1 before any vector
  is routed: 0 partitions, branching factor 1, refresh interval 0, alpha 0,
  0 initial vectors per partition, a custom stream of -1 vectors, and seed
  clusters of sigma inf, spread NaN or sigma 1e308 (whose draws overflow to
  inf, so the initial data, not the threshold, is what fails);
- ``run`` with 200 vectors and seed clusters of sigma 1e154, whose draws are
  finite but whose moments overflow to inf in the trees and in the raw
  statistics alike: the moment check must fail it, so it exits 3.
- ``run`` with 200 vectors and seed clusters of spread 1e308, whose ladder
  of means for 5 partitions leaves the float range: it must exit 1 naming
  the spread, before any draw and with no overflow warning.

Every output file, stdout, stderr and the exit code must match byte for
byte, except that each tree's source directory is written as ``<src>`` in
stderr, where Python warnings name the file they come from. The exit code
is 1 when anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZERO_ROWS = ["--dataset", str(ROOT / "tests" / "fixtures" / "zero_rows.csv"), "--partitions", "3",
             "--alpha", "3", "--threshold", "12.0"]
MULTI_CENTROID = ["--partitions", "16", "--alpha", "5", "--threshold", "4.0", "--refresh", "50"]


def cases() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments); ``run`` cases write report.json and records.jsonl."""
    outputs = ["--out", "report.json", "--records", "records.jsonl"]
    out = [
        (f"run-s{scenario}-seed{seed}", ["run", "--scenario", str(scenario), "--seed", str(seed), *outputs])
        for scenario in (1, 2, 3)
        for seed in range(1, 6)
    ]
    out.extend((f"run-multi-centroid{suffix}", ["run", "--scenario", "1", "--seed", "1", *MULTI_CENTROID,
                                                "--outlier-k", k, *outputs])
               for suffix, k in (("", "1.35"), ("-k2.45", "2.45"), ("-k2.44", "2.44"), ("-k0.5", "0.5")))
    out.append(("run-alpha-crossing", ["run", "--scenario", "1", "--seed", "2", "--partitions", "16", "--alpha", "5",
                                       "--threshold", "4.0", "--refresh", "1", *outputs]))
    out.append(("run-alpha1", ["run", "--scenario", "2", "--seed", "3", "--alpha", "1", *outputs]))
    out.append(("run-alpha2-threshold4", ["run", "--scenario", "1", "--seed", "8", "--alpha", "2",
                                          "--threshold", "4.0", *outputs]))
    out.append(("validate-seed9-alpha2-threshold4", ["validate", "--seed", "9", "--alpha", "2",
                                                     "--threshold", "4.0"]))
    out.append(("run-custom-mu0-sigma5", ["run", "--scenario", "custom", "--mu", "0", "--sigma", "5",
                                          "--vectors", "5000", "--seed", "6", *outputs]))
    out.append(("run-zero-rows", ["run", "--seed", "1", *ZERO_ROWS, *outputs]))
    out.append(("validate-zero-rows", ["validate", "--seed", "9", *ZERO_ROWS]))
    out.append(("run-s2-seed4-refresh3", ["run", "--scenario", "2", "--seed", "4", "--refresh", "3", *outputs]))
    out.append(("validate-seed9", ["validate", "--seed", "9"]))
    out.append(("validate-seed9-refresh7", ["validate", "--seed", "9", "--refresh", "7"]))
    out.append(("validate-seed9-multi-centroid", ["validate", "--seed", "9", *MULTI_CENTROID,
                                                  "--outlier-k", "1.35"]))
    out.extend((f"run-s{scenario}-seed{scenario}-branching3",
                ["run", "--scenario", str(scenario), "--seed", str(scenario), "--branching", "3", *outputs])
               for scenario in (1, 2))
    out.append(("run-alpha-crossing-branching3", ["run", "--scenario", "1", "--seed", "2", "--partitions", "16",
                                                  "--alpha", "5", "--threshold", "4.0", "--refresh", "1",
                                                  "--branching", "3", *outputs]))
    out.append(("validate-seed9-branching3", ["validate", "--seed", "9", "--branching", "3"]))
    out.append(("validate-seed9-threshold1-init3000", ["validate", "--seed", "9", "--threshold", "1.0",
                                                       "--init-per-partition", "3000"]))
    out.extend((f"run-s{scenario}-seed{scenario}-branching16",
                ["run", "--scenario", str(scenario), "--seed", str(scenario), "--branching", "16", *outputs])
               for scenario in (3, 1))
    out.append(("run-multi-centroid-branching16", ["run", "--scenario", "1", "--seed", "1", *MULTI_CENTROID,
                                                   "--outlier-k", "1.35", "--branching", "16", *outputs]))
    out.extend((f"help-{command}", [command, "--help"]) for command in ("run", "validate", "stats"))
    out.extend((f"error-{name}", ["run", *flags]) for name, flags in (
        ("partitions0", ["--partitions", "0"]),
        ("branching1", ["--branching", "1"]),
        ("refresh0", ["--refresh", "0"]),
        ("alpha0", ["--alpha", "0"]),
        ("init-per-partition0", ["--init-per-partition", "0"]),
        ("custom-vectors-1", ["--scenario", "custom", "--mu", "25", "--sigma", "10", "--vectors", "-1"]),
        ("init-sigma-inf", ["--init-sigma", "inf"]),
        ("init-spread-nan", ["--init-spread", "nan"]),
        ("init-sigma-1e308", ["--init-sigma", "1e308"]),
        ("init-sigma-1e154", ["--vectors", "200", "--init-sigma", "1e154"]),
        ("init-spread-1e308", ["--vectors", "200", "--init-spread", "1e308"]),
    ))
    return out


def run_case(src: Path, workdir: Path, args: list[str]) -> dict[str, bytes]:
    """Run the CLI from ``src`` in ``workdir``; every output as bytes by name."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("SYNALLOC_DATASET", None)
    proc = subprocess.run([sys.executable, "-m", "synalloc", *args], cwd=workdir, env=env,
                          capture_output=True)
    # A Python warning names the file it came from, so each tree's own location is written as <src>.
    stderr = proc.stderr.replace(str(src.resolve()).encode(), b"<src>")
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": stderr}
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", default="HEAD", help="git revision to compare against (default: HEAD)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="check_identity-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.ref],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive, check=True)
        trees = {"ref": ref_tree / "src", "this": ROOT / "src"}

        differing = 0
        with ThreadPoolExecutor(max_workers=2) as pool:
            for name, cli_args in cases():
                futures = {side: pool.submit(run_case, src, tmp / side / name, cli_args)
                           for side, src in trees.items()}
                ref, this = (futures[side].result() for side in trees)
                diff = [key for key in sorted(ref.keys() | this.keys()) if ref.get(key) != this.get(key)]
                print(f"{name}: {'DIFFERENT ' + ', '.join(diff) if diff else 'identical'}", flush=True)
                differing += bool(diff)

    print(f"{differing} of {len(cases())} cases differ from {args.ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
