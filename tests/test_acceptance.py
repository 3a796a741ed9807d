"""Acceptance suite: one test per release criterion, one printed line each.

Run with plain pytest; the PASS/FAIL lines bypass output capture so they are
visible in any run. Total runtime is dominated by the scenario-replication
criterion (15 full 10,000-vector runs). Criterion 5 checks each routing
decision against ``bench/oracle.py``, an independent oracle in plain Python
that imports no synalloc code.
"""

import json
import time

import numpy as np
import pytest

from synalloc import (
    AllocationEngine,
    CFTree,
    EngineConfig,
    ScenarioSpec,
    compute_weights,
    jaccard_dissim,
    kulczynski_dissim,
    run_scenario,
    sorensen_dissim,
)
from synalloc.cli import main as cli_main

from conftest import cf_of, load_bench

oracle = load_bench("oracle")

SEEDS = (1, 2, 3, 4, 5)
SCENARIOS = {1: (25.0, 10.0), 2: (25.0, 20.0), 3: (50.0, 50.0)}


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}{detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


def test_criterion_1_metric_exactness(announce):
    x, s = [3.0, 1.0], [1.0, 3.0]
    ident = [2.0, 5.0]
    cases = [
        (jaccard_dissim(ident, ident), 0.0),
        (sorensen_dissim(ident, ident), 0.0),
        (kulczynski_dissim(ident, ident), 0.0),
        (jaccard_dissim([5.0, 0.0], [0.0, 3.0]), 1.0),
        (sorensen_dissim([5.0, 0.0], [0.0, 3.0]), 1.0),
        (kulczynski_dissim([5.0, 0.0], [0.0, 3.0]), 1.0),
        (jaccard_dissim(x, s), 2.0 / 3.0),
        (sorensen_dissim(x, s), 0.5),
        (kulczynski_dissim(x, s), 0.5),
    ]
    worst = max(abs(got - want) for got, want in cases)
    announce(1, "metric exactness", worst <= 1e-12, f" (max error {worst:.2e})")


def test_criterion_2_jaccard_sorensen_tie(announce):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        x, s = rng.uniform(0.0, 1e4, size=(2, d))
        o1, o2 = jaccard_dissim(x, s), sorensen_dissim(x, s)
        worst = max(worst, abs(o1 - 2.0 * o2 / (1.0 + o2)))
    announce(2, "jaccard/sorensen algebraic tie", worst <= 1e-12, f" (max error {worst:.2e})")


def test_criterion_3_weight_rule(announce):
    rng = np.random.default_rng(3)
    uniform = all(
        np.array_equal(
            compute_weights(rng.uniform(0.0, 1.0, size=3), theta=0.1, k=3.0).weights,
            np.full(3, 1.0 / 3.0),
        )
        for _ in range(10_000)
    )
    # one outcome two population stds away; flagged once k drops below 2
    flagged = compute_weights([0.0, 0.0, 0.0, 0.0, 1.0], theta=0.1, k=1.5).weights
    outlier_ok = sorted(flagged) == [0.1, 0.225, 0.225, 0.225, 0.225]
    announce(3, "outlier weight rule", uniform and outlier_ok)


def test_criterion_4_cf_correctness(announce):
    rng = np.random.default_rng(4)
    additive = True
    for _ in range(1_000):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 8))
        pts = rng.uniform(0.0, 1e3, size=(n, d))
        cut = int(rng.integers(1, n))
        merged = cf_of(pts[:cut]).merge(cf_of(pts[cut:]))
        ok = (
            merged.count == n
            and np.allclose(merged.linear_sum, pts.sum(axis=0), rtol=1e-9, atol=1e-9)
            and np.allclose(merged.square_sum, (pts**2).sum(axis=0), rtol=1e-9, atol=1e-9)
        )
        additive = additive and ok

    tree = CFTree(dimension=3, threshold=4.0, branching_factor=8)
    pts = rng.uniform(0.0, 100.0, size=(100_000, 3))
    for row in pts:
        tree.insert(row)
    root = tree.root_cf()
    mass = root.count == 100_000 and tree.counts[tree.leaf_entries()].sum() == 100_000
    moments = np.allclose(root.centroid(), pts.mean(axis=0), rtol=1e-6) and np.allclose(
        np.sqrt(root.variance()), pts.std(axis=0), rtol=1e-6
    )
    announce(4, "cluster-feature correctness", additive and mass and moments,
             f" (leaf entries after 100k inserts: {len(tree.leaf_entries())})")


def test_criterion_5_allocation_oracle(announce):
    rng = np.random.default_rng(5)
    agree = 0
    trials = 1_000
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        points = rng.uniform(0.0, 50.0, size=(n, d))
        cfg = EngineConfig(n_partitions=n, dimension=d, alpha=1)
        eng = AllocationEngine(cfg, [p.reshape(1, -1) for p in points])
        x = rng.uniform(0.0, 50.0, size=d)
        sims = oracle.route(x.tolist(), [[p] for p in points.tolist()], cfg.theta, cfg.outlier_k)
        if eng.allocate(x)[0] == sims.index(max(sims)) + 1:
            agree += 1
    announce(5, "allocation matches independent oracle", agree == trials,
             f" ({agree}/{trials} agree)")


def test_criterion_6_two_partition_example(announce):
    means = [np.maximum([0.15, -1.0], 0.0), np.maximum([1.9, 1.8], 0.0)]
    cfg = EngineConfig(n_partitions=2, dimension=2, alpha=1)
    eng = AllocationEngine(cfg, [m.reshape(1, -1) for m in means])
    first = eng.allocate(np.maximum([0.1, -0.6], 0.0))[0]
    second = eng.allocate([1.7, 2.0])[0]
    announce(6, "documented two-partition example", (first, second) == (1, 2),
             f" (routes: {first}, {second})")


def test_criterion_7_scenario_replication(announce):
    ok = True
    details = []
    slowest = 0.0
    for scen, (mu, sigma) in SCENARIOS.items():
        for seed in SEEDS:
            t0 = time.perf_counter()
            rep = run_scenario(
                EngineConfig(), ScenarioSpec(mu, sigma, 10_000, seed=seed), label=str(scen)
            )
            slowest = max(slowest, time.perf_counter() - t0)
            counts = sorted(p.synthetic_count for p in rep.per_partition)
            maj = rep.per_partition[rep.majority_partition - 1]
            tight = bool((maj.std < sigma).all())
            in_band = bool(((maj.std >= 7.0) & (maj.std <= 10.0)).all()) if scen == 1 else True
            concentrated = sum(counts[-2:]) > 5_000
            if not (tight and in_band and concentrated):
                ok = False
                details.append(f"scenario {scen} seed {seed}")
    ok = ok and slowest < 60.0
    announce(7, "scenario replication", ok,
             f" (worst run {slowest:.1f}s" + (f"; failed: {details}" if details else ")"))


def test_criterion_8_byte_identical_reports(announce, tmp_path):
    argv = ["run", "--scenario", "1", "--seed", "11", "--vectors", "2000",
            "--init-per-partition", "100"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(argv + ["--out", str(a)])
    code_b = cli_main(argv + ["--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    announce(8, "deterministic reports", code_a == code_b == 0 and same,
             f" ({len(a.read_bytes())} bytes, majority {parsed['majority_partition']})")


def test_criterion_9_audit_suite(announce, capsys):
    code = cli_main(["validate", "--seed", "9"])
    out = capsys.readouterr().out
    passed = code == 0 and out.count(": PASS") == 5 and "FAIL" not in out
    announce(9, "invariant audit after randomized run", passed, f" (exit {code})")
