"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_correct(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    prov = record["provenance"]
    for key in ("git_commit", "source_sha256", "seed", "nproc", "python", "numpy"):
        assert key in prov
    assert prov["seed"] == 3


def test_same_seed_same_inputs_and_decisions():
    args = ("--workload", "wide_read_mix", "--seed", "5", "--seconds", "1", "--trace", "0",
            "--scale", "0.02")
    a, b = (json.loads(run_bench(*args).stdout.strip().splitlines()[-2]) for _ in range(2))
    assert a["metrics"]["majority_std_ratio"] == b["metrics"]["majority_std_ratio"]
    assert a["ops_per_pass"] == b["ops_per_pass"]


def test_missing_package_fails_without_a_result(tmp_path):
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--src", str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# Deliberately broken copies of the engine: the gate must catch each one.
ALLOCATE_RESULT = (  # the read path answers the next partition, ingest is untouched
    "        return self._allocate(v)\n",
    "        chosen, scores = self._allocate(v)\n"
    "        return chosen % len(self.partitions) + 1, scores\n",
)
ARGMAX = (  # every decision, ingest and allocate, picks the worst partition
    "int(np.argmax(sims)) + 1",
    "int(np.argmin(sims)) + 1",
)


@pytest.mark.parametrize("workload,mutation", [
    *((w, ALLOCATE_RESULT) for w in WORKLOADS),
    ("preset1_default", ARGMAX),
])
def test_broken_engine_fails_the_gate(tmp_path, workload, mutation):
    src = tmp_path / "src"
    shutil.copytree(BENCH_DIR.parent / "src" / "synalloc", src / "synalloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine_py = src / "synalloc" / "engine.py"
    text = engine_py.read_text()
    assert text.count(mutation[0]) == 1
    engine_py.write_text(text.replace(*mutation))
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--scale", "0.02", "--src", str(src))
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


# -- the oracle ----------------------------------------------------------------


def test_oracle_metrics_on_a_known_pair():
    # x = (1, 0), c = (0, 1): nothing shared.
    assert oracle.dissimilarities([1.0, 0.0], [0.0, 1.0]) == (1.0, 1.0, 1.0)
    # Identical vectors: all three metrics are 0.
    assert oracle.dissimilarities([2.0, 3.0], [2.0, 3.0]) == (0.0, 0.0, 0.0)
    # sum|x-c| = 4, sum x = sum c = 5, sum min = 3, sum max = 7.
    j, s, k = oracle.dissimilarities([3.0, 2.0], [1.0, 4.0])
    assert j == pytest.approx(1 - 3 / 7) and s == pytest.approx(4 / 10)
    assert k == pytest.approx(1 - 0.5 * (3 / 5 + 3 / 5))


def test_oracle_weight_rule():
    theta = 0.1
    # One metric far from two equal ones has z-score sqrt(2): flagged when k < sqrt(2).
    assert oracle.pooled((0.0, 0.0, 0.9), theta, 1.35) == pytest.approx(0.9 * theta)
    assert oracle.pooled((0.0, 0.0, 0.9), theta, 3.0) == pytest.approx(0.3)


def test_oracle_flags_wrong_choice_and_tie_break():
    synopses = [[[1.0, 1.0]], [[5.0, 5.0]]]
    x = [5.0, 5.0]
    sims = oracle.route(x, synopses, 0.1, 3.0)
    assert oracle.check_decision(2, sims, x, synopses, 0.1, 3.0) is None
    assert "oracle best" in oracle.check_decision(1, sims, x, synopses, 0.1, 3.0)
    off = [sims[0], sims[1] - 1e-6]
    assert "similarity" in oracle.check_decision(2, off, x, synopses, 0.1, 3.0)
    tied = [[[5.0, 5.0]], [[5.0, 5.0]]]
    tie_sims = oracle.route(x, tied, 0.1, 3.0)
    assert oracle.check_decision(1, tie_sims, x, tied, 0.1, 3.0) is None
    assert "lowest id" in oracle.check_decision(2, tie_sims, x, tied, 0.1, 3.0)


# -- the compare step ----------------------------------------------------------


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1) == "improved"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "lower", 0.1) == "improved"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    # Fewer than ten pairs cannot claim a gain.
    assert compare.verdict(parent[:5], [v * 1.5 for v in parent[:5]], "higher", 0.1) == "unresolved"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, noisy, "higher", 0.1) == "unresolved"
    # A change whose runs missed a correctness check gets no speed verdict.
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1,
                           change_failed=True) == "failed"


def _records(path: Path, workload: str, values: list[float], error_rate: float) -> Path:
    with path.open("w") as fh:
        for seed, v in enumerate(values):
            fh.write(json.dumps({
                "provenance": {"workload": workload, "seed": seed, "trace": 0},
                "error_rate": error_rate,
                "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]},
            }) + "\n")
    return path


def test_compare_fails_a_change_with_correctness_misses(tmp_path):
    values = [100.0 + i for i in range(10)]
    parent = _records(tmp_path / "parent.jsonl", "w", values, 0.0)
    good = _records(tmp_path / "good.jsonl", "w", values, 0.0)
    bad = _records(tmp_path / "bad.jsonl", "w", values, 0.001)
    assert compare.main([str(parent), str(good)]) == 0
    assert compare.main([str(parent), str(bad)]) == 1
    rows = compare.compare(parent, bad, SPEC["end_to_end"])
    assert {r["verdict"] for r in rows} == {"failed"}
    assert compare.main([str(bad)]) == 1 and compare.main([str(good)]) == 0
