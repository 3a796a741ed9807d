"""Allocation engine: routing, ingestion, refresh policy, and audits."""

import ast
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synalloc import (
    AllocationEngine,
    ConfigError,
    EngineConfig,
    VectorError,
    ensemble_similarity,
    extract_synopsis,
)
from synalloc.engine import AllocationRecord
from synalloc.similarity import SUM_BOUND, RoutingMatrix, _takes_float_path
import synalloc.engine
import synalloc.similarity

from conftest import ROOT, load_bench, make_synopsis, sum_left_to_right, tree_state

oracle = load_bench("oracle")


def reference_json_line(rec):
    """The record line as the json module writes it: the formatter in to_json_line must match it."""
    payload = {"t": rec.t, "chosen": rec.chosen, "similarities": [float(f"{s:.12g}") for s in rec.similarities()]}
    return json.dumps(payload, separators=(",", ":"))


def engine_around(points_per_partition, **overrides):
    """Engine whose partitions each hold one tight cluster at a given point."""
    pts = [np.tile(np.asarray(p, dtype=np.float64), (60, 1)) for p in points_per_partition]
    cfg = EngineConfig(
        n_partitions=len(pts),
        dimension=pts[0].shape[1],
        **overrides,
    )
    return AllocationEngine(cfg, pts)


# ------------------------------------------------------- config

class TestEngineConfig:
    def test_defaults_are_valid(self):
        cfg = EngineConfig()
        assert cfg.n_partitions == 5 and cfg.dimension == 5
        assert cfg.alpha == 50 and cfg.refresh_interval == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_partitions": 0},
            {"dimension": 0},
            {"alpha": 0},
            {"branching_factor": 1},
            {"threshold": 0.0},
            {"threshold": -1.0},
            {"theta": 0.0},
            {"theta": 1.0 / 3.0},
            {"outlier_k": 0.0},
            {"outlier_k": float("nan")},
            {"refresh_interval": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_partitions", "dimension", "alpha", "branching_factor", "refresh_interval"])
    @pytest.mark.parametrize("value", [2.0, 2.5, "2", None, True, np.True_])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_partitions", "dimension", "alpha", "branching_factor", "refresh_interval"])
    def test_accepts_numpy_integer_counts(self, field):
        assert getattr(EngineConfig(**{field: np.int64(3)}), field) == 3
        minimum = 2 if field == "branching_factor" else 1  # the boundary: the minimum passes, one less fails
        assert getattr(EngineConfig(**{field: np.int64(minimum)}), field) == minimum
        with pytest.raises(ConfigError, match=f"^{field} must be >= {minimum}$"):
            EngineConfig(**{field: minimum - 1})

    def test_a_fractional_alpha_reaches_no_dominant_registry(self, rng):
        # The registry takes an entry when its count equals alpha, which 2.5 never does.
        cfg = EngineConfig(n_partitions=2, dimension=2, alpha=3, threshold=0.5)
        with pytest.raises(ConfigError, match="^alpha must be an integer"):
            dataclasses.replace(cfg, alpha=2.5)
        eng = AllocationEngine(cfg, [rng.uniform(0, 10, size=(50, 2)) + 10 * i for i in range(2)])
        tree = eng.partitions[0].tree
        for route in (lambda: tree.dominant_entries(2.5), lambda: extract_synopsis(tree, 2.5, 1, 2)):
            with pytest.raises(ConfigError, match="^alpha must be an integer"):
                route()
        assert tree._dominant_alpha == 3
        for x in rng.uniform(0.0, 20.0, size=(300, 2)):
            eng.ingest(x)
        assert eng.audit().ok

    @pytest.mark.parametrize("field, value", [("theta", 0.9), ("outlier_k", -1.0), ("alpha", 0)])
    def test_is_immutable_after_validation(self, field, value):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert getattr(cfg, field) == getattr(EngineConfig(), field)


# ------------------------------------------------------- construction

class TestEngineInit:
    def test_initial_state(self, rng):
        initial = [rng.uniform(0, 10, size=(30, 4)) for _ in range(3)]
        cfg = EngineConfig(n_partitions=3, dimension=4, alpha=5)
        eng = AllocationEngine(cfg, initial)
        assert eng.total_points() == 90
        assert [p.initial_count for p in eng.partitions] == [30, 30, 30]
        assert [s.version for s in eng.synopses] == [1, 1, 1]
        assert eng.messages_disseminated == 0 and eng.rejected == 0

    def test_small_partitions_fall_back_to_root_summary(self, rng):
        initial = [rng.uniform(0, 10, size=(10, 2)) for _ in range(2)]
        cfg = EngineConfig(n_partitions=2, dimension=2, alpha=50)
        eng = AllocationEngine(cfg, initial)
        for syn, pts in zip(eng.synopses, initial):
            assert len(syn.dominant) == 1
            assert syn.dominant[0].count == 10
            assert np.allclose(syn.centroids[0], pts.mean(axis=0), rtol=1e-9)

    def test_partition_count_mismatch(self):
        cfg = EngineConfig(n_partitions=2, dimension=2)
        with pytest.raises(ConfigError):
            AllocationEngine(cfg, [np.ones((5, 2))])

    def test_dimension_mismatch(self):
        cfg = EngineConfig(n_partitions=1, dimension=3)
        with pytest.raises(ConfigError):
            AllocationEngine(cfg, [np.ones((5, 2))])

    def test_empty_partition_rejected(self):
        cfg = EngineConfig(n_partitions=1, dimension=2)
        with pytest.raises(ConfigError):
            AllocationEngine(cfg, [np.empty((0, 2))])

    @pytest.mark.parametrize("shape", [(4, 3, 2), (2, 4, 3), (1, 1, 4, 3)])
    def test_a_block_of_more_than_two_dimensions_is_a_config_error(self, shape):
        """Checked with the other block checks, before any tree is built: trees trust their rows."""
        cfg = EngineConfig(n_partitions=2, dimension=3)
        with pytest.raises(ConfigError, match=rf"^partition 1: initial data must be a 2-D block of rows, "
                                              rf"got shape \({', '.join(map(str, shape))}\)$"):
            AllocationEngine(cfg, [np.ones(shape), np.ones((4, 3))])

    def test_a_one_row_block_may_be_1_d(self):
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=3), [np.ones(3), np.ones((4, 3))])
        assert [p.initial_count for p in eng.partitions] == [1, 4]

    @pytest.mark.parametrize("threshold", [None, 1.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_block_is_checked_before_any_tree_is_built(self, threshold):
        # Partition 1's rows are finite, but its threshold and its tree's sums would overflow.
        blocks = [np.full((4, 3), 1e308), np.ones((4, 3)), np.array([[1.0, np.nan, 1.0]])]
        cfg = EngineConfig(n_partitions=3, dimension=3, threshold=threshold)
        with pytest.raises(ConfigError, match=r"^partition 3: malformed input: non-finite component$"):
            AllocationEngine(cfg, blocks)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's ComplexWarning included
    def test_bad_initial_data_is_one_config_error_whatever_the_threshold(self, data):
        """The block is checked, in numpy's own dtype, before it is cast or the data-scaled threshold reads it."""
        dim = data.draw(st.integers(1, 6))
        blocks = [data.draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(0.0, 1e3)))
                  for rows in data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))]
        # A planted component, or a block that numpy does not read as real numbers, or as a block at all.
        retyped = {"complex": lambda b: b + 4j, "text": lambda b: b.astype(str), "objects": lambda b: b.astype(object),
                   "ragged": lambda b: [*b.tolist(), [0.0] * (dim + 1)]}
        planted = data.draw(st.none() | st.sampled_from([np.nan, np.inf, -np.inf, -1.0, *retyped]))
        if planted is not None:
            pid = data.draw(st.integers(1, len(blocks)))
            block = blocks[pid - 1]
            if planted in retyped:
                blocks[pid - 1] = retyped[planted](block)
            else:
                block[data.draw(st.integers(0, len(block) - 1)), data.draw(st.integers(0, dim - 1))] = planted
        errors = []
        for threshold in (None, 1.0):
            cfg = EngineConfig(n_partitions=len(blocks), dimension=dim, alpha=5, threshold=threshold)
            try:
                eng = AllocationEngine(cfg, blocks)
            except ConfigError as exc:
                errors.append(str(exc))
            else:
                assert eng.audit().ok
        if planted is None:
            assert errors == []
        else:
            assert errors[0] == errors[1] and errors[0].startswith(f"partition {pid}: ")


# ------------------------------------------------------- allocation

class TestAllocate:
    def test_obvious_nearest_partition(self):
        eng = engine_around([[1.0, 1.0], [50.0, 50.0]])
        assert eng.allocate([2.0, 1.5])[0] == 1
        assert eng.allocate([48.0, 52.0])[0] == 2

    def test_identical_partitions_tie_to_lowest_id(self):
        eng = engine_around([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        chosen, scores = eng.allocate([4.0, 6.0])
        assert chosen == 1
        assert scores[0].similarity == pytest.approx(scores[2].similarity)

    def test_documented_two_partition_example(self):
        # mean vectors and probes clamped to non-negative before use
        means = [np.maximum([0.15, -1.0], 0.0), np.maximum([1.9, 1.8], 0.0)]
        eng = engine_around(means)
        assert eng.allocate(np.maximum([0.1, -0.6], 0.0))[0] == 1
        assert eng.allocate([1.7, 2.0])[0] == 2

    def test_allocate_is_pure(self):
        eng = engine_around([[1.0, 2.0], [8.0, 9.0]])
        before = eng.total_points()
        versions = [s.version for s in eng.synopses]
        eng.allocate([3.0, 3.0])
        assert eng.total_points() == before
        assert [s.version for s in eng.synopses] == versions

    def test_matches_naive_oracle_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            points = rng.uniform(0.0, 30.0, size=(n, 3))
            eng = engine_around(points)
            x = rng.uniform(0.0, 30.0, size=3)
            sims = oracle.route(x.tolist(), [[p] for p in points.tolist()], eng.config.theta, eng.config.outlier_k)
            assert eng.allocate(x)[0] == sims.index(max(sims)) + 1

    def test_scores_cover_every_partition(self):
        eng = engine_around([[1.0, 1.0], [9.0, 9.0], [20.0, 20.0]])
        chosen, scores = eng.allocate([8.0, 10.0])
        assert len(scores) == 3
        assert chosen == 2
        assert all(0.0 <= s.similarity <= 1.0 for s in scores)

    def test_rejects_invalid_probe(self):
        eng = engine_around([[1.0, 1.0]])
        with pytest.raises(VectorError):
            eng.allocate([-1.0, 1.0])
        with pytest.raises(VectorError):
            eng.allocate([1.0, 1.0, 1.0])


# ------------------------------------------------------- ingestion

class TestIngest:
    def test_record_sequence(self, rng):
        eng = engine_around([[2.0, 2.0], [20.0, 20.0]])
        stream = rng.uniform(0.0, 25.0, size=(40, 2))
        records = list(eng.ingest_stream(stream))
        assert [r.t for r in records] == list(range(40))
        assert eng.accepted() == 40
        assert eng.total_points() == 120 + 40

    def test_choice_agrees_with_preceding_allocate(self, rng):
        eng = engine_around([[2.0, 2.0], [20.0, 20.0]])
        for x in rng.uniform(0.0, 25.0, size=(30, 2)):
            want = eng.allocate(x)[0]
            assert eng.ingest(x).chosen == want

    def test_invalid_vector_is_rejected_and_counted(self):
        eng = engine_around([[2.0, 2.0]])
        with pytest.raises(VectorError):
            eng.ingest([-3.0, 1.0])
        with pytest.raises(VectorError):
            eng.ingest([np.nan, 1.0])
        assert eng.rejected == 2
        assert eng.accepted() == 0
        assert eng.ingest([2.0, 2.0]).t == 0  # clock only advances on success

    def test_a_rejected_ingest_leaves_every_tree_untouched(self, rng):
        """The engine inserts trusted vectors, so whatever ``ingest`` rejects must never reach a tree."""
        eng = engine_around([[2.0, 2.0], [20.0, 20.0]], branching_factor=3)
        for x in rng.uniform(0.0, 25.0, size=(50, 2)):
            eng.ingest(x)
        before = [tree_state(p.tree) for p in eng.partitions]
        synopses = eng.synopses
        bad = [[-3.0, 1.0], [np.nan, 1.0], [np.inf, 1.0], [2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]], 2.0,
               "ab", ["a", 1.0], [1 + 2j, 1.0], {"a": 1}, np.array([1 + 2j, 1.0]), [[1.0], [2.0, 3.0]]]
        for x in bad:
            with pytest.raises(VectorError):
                eng.ingest(x)
        assert eng.rejected == len(bad) and eng.accepted() == 50
        assert [tree_state(p.tree) for p in eng.partitions] == before
        assert eng.synopses == synopses
        assert eng.audit().ok

    def test_refresh_every_insert_by_default(self, rng):
        eng = engine_around([[2.0, 2.0], [20.0, 20.0]])
        for x in rng.uniform(0.0, 25.0, size=(10, 2)):
            eng.ingest(x)
        assert eng.messages_disseminated == 10

    def test_refresh_interval_batches_dissemination(self):
        eng = engine_around([[5.0, 5.0]], refresh_interval=3)
        for _ in range(7):
            eng.ingest([5.0, 5.0])
        # refreshes after inserts 3 and 6; the 7th is still pending
        assert eng.messages_disseminated == 2
        assert eng.synopses[0].version == 3
        p = eng.partitions[0]
        assert (p.tree.total_points - p.initial_count) % eng.config.refresh_interval == 1

    def test_stale_synopsis_between_refreshes(self):
        eng = engine_around([[5.0, 5.0]], refresh_interval=5)
        before = eng.synopses[0].dominant[0].count
        eng.ingest([5.0, 5.0])
        assert eng.synopses[0].dominant[0].count == before  # not yet re-extracted

    @given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_refresh_schedule_follows_tree_counts(self, interval, n, seed):
        # The engine keeps no refresh counter; check it against one kept here.
        rng = np.random.default_rng(seed)
        initial = [rng.uniform(0, 10, size=(int(rng.integers(1, 12)), 2)) + 8 * i for i in range(n)]
        cfg = EngineConfig(n_partitions=n, dimension=2, alpha=3, refresh_interval=interval)
        eng = AllocationEngine(cfg, initial)
        taken = [0] * n
        messages = 0
        for x in rng.uniform(0, 8 * n, size=(40, 2)):
            before = eng.synopses
            chosen = eng.ingest(x).chosen
            taken[chosen - 1] += 1
            messages += taken[chosen - 1] % interval == 0
            assert eng.messages_disseminated == messages
            for pid, (p, old) in enumerate(zip(eng.partitions, before), start=1):
                syn = p.current_synopsis
                assert syn.version == 1 + taken[pid - 1] // interval
                if taken[pid - 1] % interval == 0:
                    assert_same_synopsis(syn, extract_synopsis(p.tree, cfg.alpha, pid, syn.version))
                else:
                    assert syn is old

    def test_json_record_line(self, rng):
        eng = engine_around([[2.0, 2.0], [20.0, 20.0], [40.0, 40.0]])
        rec = eng.ingest(rng.uniform(0.0, 45.0, size=2))
        payload = json.loads(rec.to_json_line())
        assert set(payload) == {"t", "chosen", "similarities"}
        assert payload["t"] == 0 and payload["chosen"] == rec.chosen
        assert len(payload["similarities"]) == 3
        for got, sim in zip(payload["similarities"], rec.similarities()):
            assert got == float(f"{sim:.12g}")
        assert " " not in rec.to_json_line()

    def test_json_record_line_is_what_json_dumps_writes(self):
        for sims in ([math.nan, 0.0, 1.0, 5e-324], [0.1 + 0.2, 1 / 3], [-0.0]):
            rec = AllocationRecord(7, np.zeros(2), 2, np.array(sims))
            payload = {"t": 7, "chosen": 2, "similarities": [float(f"{s:.12g}") for s in sims]}
            assert rec.to_json_line() == json.dumps(payload, separators=(",", ":"))

    @given(st.integers(0, 2**63), st.integers(1, 64),
           st.lists(st.one_of(st.floats(), st.floats(0, 1)), min_size=1, max_size=20))
    @settings(max_examples=500, deadline=None)
    def test_json_record_line_equals_the_json_module(self, t, chosen, sims):
        # st.floats() draws NaN, the infinities, both zeros and subnormals.
        rec = AllocationRecord(t, np.zeros(2), chosen, np.array(sims, dtype=np.float64))
        assert rec.to_json_line() == reference_json_line(rec)

    def test_deterministic_across_identical_engines(self, rng):
        stream = rng.uniform(0.0, 25.0, size=(60, 2))
        seq = []
        for _ in range(2):
            eng = engine_around([[2.0, 2.0], [20.0, 20.0]], refresh_interval=2)
            seq.append([r.chosen for r in eng.ingest_stream(stream)])
        assert seq[0] == seq[1]


# ------------------------------------------------------- audit

class TestAudit:
    def _run_engine(self, rng, **overrides):
        initial = [rng.uniform(0, 10, size=(40, 3)) + 10 * i for i in range(3)]
        cfg = EngineConfig(n_partitions=3, dimension=3, alpha=10, **overrides)
        eng = AllocationEngine(cfg, initial)
        for x in rng.uniform(0.0, 30.0, size=(200, 3)):
            eng.ingest(x)
        return eng

    def test_clean_engine_passes(self, rng):
        report = self._run_engine(rng).audit()
        assert report.ok, report.issues
        assert set(report.checks) == {
            "mass_conservation",
            "cf_consistency",
            "synopsis_alpha_compliance",
            "weight_convexity",
        }
        # Identical initial rows: a data-scaled threshold below rounding noise would fail the radius check.
        report = AllocationEngine(EngineConfig(n_partitions=1, dimension=1), [np.full((3, 1), 857.4042765875694)]).audit()
        assert report.ok, report.issues

    def test_clean_engine_passes_with_batched_refresh(self, rng):
        report = self._run_engine(rng, refresh_interval=7).audit()
        assert report.ok, report.issues

    def test_detects_corrupted_leaf_mass(self, rng):
        eng = self._run_engine(rng)
        tree = eng.partitions[0].tree
        tree._count[tree.leaf_entries()[0]] += 5
        report = eng.audit()
        assert not report.ok
        assert report.checks["mass_conservation"] and not report.checks["cf_consistency"]
        n = tree.total_points  # the tree's own check reports the fault, once
        assert [i for i in report.issues if " mass " in i] == [f"partition 1: mass {n + 5} != inserted {n}"]

    def test_detects_an_ingest_no_tree_holds(self, rng):
        eng = self._run_engine(rng)
        eng._t += 1  # counted as accepted, stored nowhere
        report = eng.audit()
        assert not report.checks["mass_conservation"] and report.checks["cf_consistency"]
        assert report.issues == ["total tree mass != initial + accepted ingests"]

    @pytest.mark.parametrize("fault", ["count_raised_across_alpha", "duplicate"])
    def test_detects_dominant_registry_fault(self, rng, fault):
        eng = self._run_engine(rng, threshold=4.0)  # wide leaves: some reach alpha
        tree = eng.partitions[0].tree
        assert tree.consistency_issues() == []
        if fault == "duplicate":
            tree._add_dominant(tree._dominant[0])
        else:
            below = next(e for e in tree.leaf_entries() if tree.counts[e] < eng.config.alpha)
            tree._count[below] = eng.config.alpha
        report = eng.audit()
        assert not report.checks["cf_consistency"]
        assert any("dominant registry out of sync" in i for i in report.issues)

    def test_detects_stale_centroid_cache(self, rng):
        eng = self._run_engine(rng)
        tree = eng.partitions[2].tree
        e = tree._nodes[tree._root][0]
        tree._cent[e] = tree._cent[e] * (1.0 + 1e-12)
        report = eng.audit()
        assert not report.checks["cf_consistency"]
        assert "partition 3: root: stale centroid cache" in report.issues
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("bad_id", ["past_table", "negative"])
    def test_reports_a_node_id_outside_the_entry_table(self, rng, bad_id):
        eng = self._run_engine(rng)
        tree = eng.partitions[0].tree
        leaf_node = next(k for k, ids in enumerate(tree._nodes) if len(ids) and tree._child[ids[0]] < 0)
        e = tree._n + 5 if bad_id == "past_table" else -1
        tree._nodes[leaf_node] = np.append(tree._nodes[leaf_node], e)
        report = eng.audit()
        assert not report.checks["cf_consistency"]
        assert any(f"entry ids [{e}] outside the table of {tree._n} rows" in i for i in report.issues)
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("fault", ["past_nodes", "cycle"])
    def test_reports_a_bad_child_pointer_and_returns(self, rng, fault):
        eng = self._run_engine(rng)
        tree = eng.partitions[0].tree
        assert tree.height() > 1
        e = tree._nodes[tree._root][0]
        tree._child[e] = len(tree._nodes) + 3 if fault == "past_nodes" else tree._root
        report = eng.audit()
        assert not report.checks["cf_consistency"]
        assert any(i.startswith("partition 1: root[0]: child node ") for i in report.issues), report.issues
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("root", ["past_nodes", "negative"])
    def test_reports_a_root_outside_the_node_list_and_returns(self, rng, root):
        eng = self._run_engine(rng)
        tree = eng.partitions[0].tree
        n = len(tree._nodes)
        tree._root = n + 1 if root == "past_nodes" else -1
        report = eng.audit()
        assert not report.checks["cf_consistency"]
        assert f"partition 1: root node id {tree._root} outside the {n} nodes" in report.issues
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    def test_detects_corrupted_synopsis_centroid(self, rng):
        eng = self._run_engine(rng)
        eng.partitions[1].current_synopsis.centroids[0] += 99.0
        report = eng.audit()
        assert not report.checks["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("fault", ["zero_probe", "second_partition_probe"])
    def test_weight_probe_scores_every_row_for_every_probe(self, rng, fault, monkeypatch):
        # Each fault shows only for a probe other than partition 1's first centroid.
        eng = self._run_engine(rng)
        if fault == "zero_probe":
            real_rule = synalloc.similarity._outlier_rule

            def rule(t, theta, k):  # rows disjoint from the probe get weights summing to 2
                w, pooled = real_rule(t, theta, k)
                return np.where((t == 1.0).all(axis=0), 2.0 * w, w), pooled

            monkeypatch.setattr(synalloc.similarity, "_outlier_rule", rule)  # at k = 3 the router skips the rule
            want = "non-convex weights"
        else:
            target = eng.synopses[1].centroids[0]
            real_dissim = synalloc.similarity._dissim_rows

            def dissim(x, matrix):  # outcomes below 0 for one probe only
                d = real_dissim(x, matrix)
                return d - 1.0 if np.array_equal(x, target) else d

            monkeypatch.setattr(synalloc.similarity, "_dissim_rows", dissim)
            want = "similarity out of range"
        report = eng.audit()
        assert not report.checks["weight_convexity"]
        assert any(want in issue for issue in report.issues), report.issues
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("k", [3.0, 1.35])
    def test_weight_probe_holds_the_rule_skip_to_the_rule(self, rng, monkeypatch, k):
        # A skip that pools J alone and still builds no weights: uniform weights would hide it.
        eng = self._run_engine(rng, outlier_k=k)
        real_pool = synalloc.similarity._pool

        def pool(t, theta, k):
            return (None, t[0].copy()) if k * k >= 2 * t.shape[0] else real_pool(t, theta, k)

        monkeypatch.setattr(synalloc.similarity, "_pool", pool)
        report = eng.audit()
        if k * k < 6:  # the router runs the rule: there is no skip to check
            assert report.ok, report.issues
            return
        assert not report.checks["weight_convexity"]
        skip = [i for i in report.issues if "outlier-rule skip pools differently from the rule" in i]
        # The router's float path pools as the rule does, so it now differs from the broken kernel.
        float_path = [i for i in report.issues if "float-path similarity differs from the kernel's" in i]
        assert eng._matrix.floats is not None and eng._matrix.bounded
        assert skip and float_path and sorted(skip + float_path) == sorted(report.issues), report.issues
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]

    def test_weight_probe_takes_the_routers_path(self, rng, monkeypatch):
        # The probes score a rebuilt matrix on the kernel, with its sums and flag, as allocate scores
        # the engine's there; the zero vector is guarded. The float path's cross-check calls no kernel.
        eng = self._run_engine(rng)
        real_dissim = synalloc.similarity._dissim_rows
        paths = []

        def dissim(x, matrix):
            paths.append((x.any(), matrix is not eng._matrix and matrix.sums.tobytes() == eng._matrix.sums.tobytes(),
                          matrix.bounded))
            return real_dissim(x, matrix)

        monkeypatch.setattr(synalloc.similarity, "_dissim_rows", dissim)
        assert eng._matrix.bounded and eng.audit().ok
        assert paths == [(True, True, True)] * eng.config.n_partitions + [(False, True, True)]

    @pytest.mark.parametrize("corrupt", ["rows", "sums"])
    def test_holds_the_float_path_to_the_kernel(self, rng, corrupt):
        # Only the live matrix's Python lists change: its arrays, and so the kernel, stay right.
        eng = self._run_engine(rng)
        assert _takes_float_path(eng._matrix, eng.config.outlier_k)
        assert eng.audit().ok
        rows, sums = eng._matrix.floats
        lo, hi = eng._matrix.offsets[1:3].tolist()
        if corrupt == "rows":
            rows = rows[:lo] + [[1.5 * v for v in r] for r in rows[lo:hi]] + rows[hi:]
        else:
            sums = sums[:lo] + [2.0 * v for v in sums[lo:hi]] + sums[hi:]
        eng._matrix.floats = rows, sums
        report = eng.audit()
        assert not report.checks["weight_convexity"]
        assert report.checks["mass_conservation"] and report.checks["synopsis_alpha_compliance"]
        assert report.checks["cf_consistency"]
        assert report.issues and all(i.startswith("partition 2: float-path similarity differs from the kernel's for ")
                                     for i in report.issues), report.issues
        assert "partition 2: float-path similarity differs from the kernel's for partition 2's first centroid" \
            in report.issues

    def test_reports_a_negative_published_centroid(self, rng):
        # The router no longer checks centroid signs per call; the audit does.
        eng = self._run_engine(rng)
        install_synopses(eng, [[[1.0, 2.0, 3.0]], [[4.0, -1.0, 5.0]], [[6.0, 7.0, 8.0]]])
        report = eng.audit()
        assert not report.checks["synopsis_alpha_compliance"]
        assert not report.checks["weight_convexity"]
        assert "partition 2: negative published centroid" in report.issues

    @pytest.mark.parametrize(
        "fault", ["rows_cut", "wrong_dimension", "empty", "linear_sums_wrong_dimension", "counts_rows_cut"]
    )
    def test_reports_a_centroid_array_that_does_not_fit_the_dominant_list(self, rng, fault):
        initial = [rng.uniform(0, 10, size=(30, 2)) + 10 * i for i in range(2)]
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2, alpha=10), initial)
        syn = make_synopsis([[3.0, 4.0], [5.0, 5.0]])
        if fault == "rows_cut":  # a row-by-row comparison would stop after the first CF
            syn.centroids = syn.centroids[:1]
            eng._publish(1, syn)
        elif fault == "wrong_dimension":  # the rows cannot be stacked with the others
            eng.partitions[0].current_synopsis = make_synopsis([[3.0, 4.0, 5.0]])
        elif fault == "empty":
            eng.partitions[0].current_synopsis = make_synopsis(np.zeros((0, 2)))
        elif fault == "linear_sums_wrong_dimension":  # the centroids fit; the sums they are checked against do not
            syn = make_synopsis([[3.0, 4.0]])
            syn.linear_sums = np.array([[300.0, 400.0, 500.0]])
            eng._publish(1, syn)
        else:
            syn.counts = syn.counts[:1]
            eng._publish(1, syn)
        report = eng.audit()
        assert not report.checks["synopsis_alpha_compliance"]
        shape = {"rows_cut": "(1, 2) for 2", "wrong_dimension": "(1, 3) for 1", "empty": "(0, 2) for 0",
                 "counts_rows_cut": "(2, 2) for 1"}.get(fault)
        if shape is None:
            assert report.issues == ["partition 1: counts of shape (1,) and linear sums of shape (1, 3) "
                                     "for a centroid array of shape (1, 2)"]
        else:
            assert report.issues == [f"partition 1: centroid array of shape {shape} dominant CFs of dimension 2"]
        if fault in ("rows_cut", "linear_sums_wrong_dimension", "counts_rows_cut"):
            assert report.checks["weight_convexity"]  # the centroid rows still stack and are probed

    @pytest.mark.parametrize("fault", ["partition_id", "square_sums_cut"])
    def test_reports_a_synopsis_fault_the_router_cannot_see(self, rng, fault):
        # Routing reads only the centroids, so each fault passes it; the audit must name it.
        initial = [rng.uniform(0, 10, size=(30, 2)) + 10 * i for i in range(2)]
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2, alpha=10), initial)
        if fault == "partition_id":
            eng._publish(1, make_synopsis([[3.0, 4.0], [5.0, 5.0]], partition_id=2))
            want = "partition 1: synopsis names partition 2"
        else:
            syn = make_synopsis([[3.0, 4.0], [5.0, 5.0]])
            syn.square_sums = syn.square_sums[:1]
            eng._publish(1, syn)
            want = "partition 1: square sums of shape (1, 2) for a centroid array of shape (2, 2)"
        report = eng.audit()
        assert report.issues == [want]
        assert [k for k, ok in report.checks.items() if not ok] == ["synopsis_alpha_compliance"]

    @pytest.mark.parametrize("fault", ["matrix", "offsets", "skipped_rebuild", "skipped_write"])
    def test_detects_stale_routing_matrix(self, rng, fault, monkeypatch):
        # Root-fallback synopses: every ingest moves the chosen partition's mean.
        initial = [rng.uniform(0, 10, size=(30, 2)) + 10 * i for i in range(2)]
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2, alpha=1000), initial)
        publish = eng._publish
        if fault == "matrix":
            eng._matrix.centroids[1, 0] += 1e-9
        elif fault == "offsets":
            eng._matrix.offsets[1] += 1
        elif fault == "skipped_rebuild":  # the synopsis is published, the matrix left as it was
            monkeypatch.setattr(eng, "_publish", lambda pid, syn: setattr(eng.partitions[pid - 1], "current_synopsis", syn))
            eng.ingest([3.0, 4.0])
        else:  # a publish that still rebuilds when the row count changes, but writes no rows in place
            def publish_without_write(pid, syn):
                if len(syn.centroids) == len(eng.synopses[pid - 1].centroids):
                    eng.partitions[pid - 1].current_synopsis = syn
                else:
                    publish(pid, syn)

            monkeypatch.setattr(eng, "_publish", publish_without_write)
            install_synopses(eng, [[[3.0, 4.0], [5.0, 5.0]], [[15.0, 15.0]]])
            eng.ingest([3.0, 4.0])  # two rows back to the one-row fallback: a rebuild
            assert eng.audit().ok and eng._matrix.offsets.tolist() == [0, 1, 2]
            eng.ingest([3.0, 4.0])  # one row to one row: the skipped write
        report = eng.audit()
        assert not report.checks["synopsis_alpha_compliance"]
        assert "routing matrix differs from the published centroids" in report.issues
        assert report.checks["mass_conservation"] and report.checks["cf_consistency"]

    @pytest.mark.parametrize("fault", ["stale_sum", "flag_over_a_zero_row"])
    def test_detects_stale_routing_matrix_sums(self, rng, fault):
        initial = [rng.uniform(0, 10, size=(30, 2)) + 10 * i for i in range(2)]
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2, alpha=1000), initial)
        if fault == "stale_sum":  # one ulp off
            eng._matrix.sums[1] = np.nextafter(eng._matrix.sums[1], np.inf)
            want = ["routing matrix row sums differ from the published centroids"]
        else:
            install_synopses(eng, [[[3.0, 4.0]], [[0.0, 0.0]]])
            assert eng.audit().ok
            eng._matrix.bounded = True
            want = ["routing matrix fault-free flag is True, the published row sums give False"]
        report = eng.audit()
        assert not report.checks["synopsis_alpha_compliance"]
        assert [i for i in report.issues if i.startswith("routing matrix")] == want
        assert report.checks["mass_conservation"] and report.checks["cf_consistency"]

    @pytest.mark.parametrize("refresh", [1, 3])
    @pytest.mark.parametrize("fault", ["skipped_publish", "publish_one_insert_late"])
    def test_detects_a_publish_off_the_refresh_schedule(self, rng, monkeypatch, refresh, fault):
        # The matrix follows every publish that happens, so only the versions can show the fault.
        initial = [rng.uniform(0, 10, size=(30, 2)) + 10 * i for i in range(2)]
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2, alpha=1000, refresh_interval=refresh),
                               initial)
        publish, due = eng._publish, []
        monkeypatch.setattr(eng, "_publish", lambda pid, syn: due.append(pid))
        failed = []
        for n in range(1, 2 * refresh + 2):
            late, due[:] = list(due), []
            assert eng.ingest([3.0, 4.0]).chosen == 1
            if fault == "publish_one_insert_late":  # the publish that fell due on the insert before
                for pid in late:
                    p = eng.partitions[pid - 1]
                    publish(pid, extract_synopsis(p.tree, eng.config.alpha, pid, p.current_synopsis.version + 1))
            report = eng.audit()
            if not report.ok:
                version, schedule = eng.synopses[0].version, 1 + n // refresh
                assert report.issues == [f"partition 1: synopsis version {version}, "
                                         f"the refresh schedule gives {schedule}"]
                assert [k for k, ok in report.checks.items() if not ok] == ["synopsis_alpha_compliance"]
                failed.append(n)
        if fault == "skipped_publish":
            assert failed == list(range(refresh, 2 * refresh + 2))
        else:  # behind on each insert that falls due, caught up on the next
            assert failed == [n for n in range(1, 2 * refresh + 2) if n % refresh == 0]

    def test_the_engine_leaves_the_scorers_rules_to_similarity(self):
        """The audit checks the routing matrix through its own methods: the engine restates no scoring rule."""
        tree = ast.parse((ROOT / "src" / "synalloc" / "engine.py").read_text())
        private = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "similarity"
                   for alias in node.names if alias.name.startswith("_")}
        assert private == {"_check_weight_params"}


    def test_the_engine_reads_a_synopsis_only_for_its_centroids_version_and_id(self):
        """A synopsis checks its own columns: the engine names none of those that only that check reads."""
        tree = ast.parse((ROOT / "src" / "synalloc" / "engine.py").read_text())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & {"counts", "linear_sums", "square_sums", "dominant"}

# ------------------------------------------------------- fused scoring

def bits(*values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_score(got, want):
    assert bits(got.similarity, got.pooled_dissimilarity) == bits(
        want.similarity, want.pooled_dissimilarity
    )
    assert [o.metric for o in got.per_metric] == [o.metric for o in want.per_metric]
    assert bits(*(o.dissimilarity for o in got.per_metric)) == bits(
        *(o.dissimilarity for o in want.per_metric)
    )
    assert got.weights.weights.tobytes() == want.weights.weights.tobytes()
    assert got.weights.theta == want.weights.theta


def first_best_row(x, centroids, theta, k):
    """Per-row scores through one-row synopses; the first maximum wins."""
    best = None
    for c in centroids:
        score = ensemble_similarity(x, make_synopsis([c]), theta, k)
        if best is None or score.similarity > best.similarity:
            best = score
    return best


def assert_same_synopsis(got, want):
    assert (got.partition_id, got.version) == (want.partition_id, want.version)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert [(cf.count, cf.linear_sum.tobytes(), cf.square_sum.tobytes()) for cf in got.dominant] == [
        (cf.count, cf.linear_sum.tobytes(), cf.square_sum.tobytes()) for cf in want.dominant
    ]


def assert_sums_of_a_fresh_build(eng):
    """The routing matrix's row sums and flag equal those taken afresh, left to right, over the published rows."""
    sums = sum_left_to_right(np.concatenate([s.centroids for s in eng.synopses]))
    matrix = eng._matrix
    assert (matrix.sums.dtype, matrix.sums.tobytes()) == (sums.dtype, sums.tobytes())
    assert matrix.bounded is bool(((sums > 0.0) & (sums <= SUM_BOUND)).all())


def install_synopses(eng, partitions):
    """Publish one synopsis per partition, centroids as given, and build the engine a matrix of them."""
    for p, rows in zip(eng.partitions, partitions):
        p.current_synopsis = make_synopsis(rows, partition_id=p.current_synopsis.partition_id)
    eng._matrix = RoutingMatrix([s.centroids for s in eng.synopses])


def assert_allocate_matches_per_synopsis(eng, x):
    cfg = eng.config
    chosen, scores = eng.allocate(x)
    assert len(scores) == cfg.n_partitions
    for syn, got in zip(eng.synopses, scores):
        assert_same_score(got, ensemble_similarity(x, syn, cfg.theta, cfg.outlier_k))
    assert chosen == int(np.argmax([s.similarity for s in scores])) + 1
    return chosen, scores


# Few distinct values, so duplicate rows, identical partitions and zeros are common.
abundance = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0]), st.floats(0, 1e4))


@st.composite
def published_synopses(draw):
    d = draw(st.integers(1, 4))
    row = hnp.arrays(np.float64, d, elements=abundance)
    partitions = draw(st.lists(st.lists(row, min_size=1, max_size=5), min_size=1, max_size=5))
    if draw(st.booleans()):  # a duplicate centroid inside one partition
        partitions[0].append(partitions[0][0])
    if draw(st.booleans()):  # an identical copy of a whole partition
        partitions.append(list(partitions[0]))
    x = draw(st.one_of(st.just(np.zeros(d)), row))
    theta = draw(st.sampled_from([0.05, 0.1, 0.3]))
    k = draw(st.sampled_from([1.0, 1.35, 3.0]))  # below sqrt(2) the outlier rule can fire
    return partitions, x, theta, k


class TestRoutingMatrix:
    """The matrix is patched in place or rebuilt on each publish; it must equal a fresh stack."""

    @given(
        dimension=st.sampled_from([2, 8, 129]),  # numpy sums one row pairwise from M = 8 on
        seed=st.integers(0, 2**32 - 1),
        n_partitions=st.integers(1, 16),
        alpha_refresh=st.one_of(
            st.just((1000, 1)),  # root fallback: every publish keeps one row
            st.tuples(st.integers(1, 5), st.integers(1, 7)),  # row counts grow as entries cross alpha
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_a_rebuild_after_every_ingest(self, dimension, seed, n_partitions, alpha_refresh):
        alpha, refresh = alpha_refresh
        rng = np.random.default_rng(seed)
        initial = [rng.uniform(0, 4, size=(8, dimension)) + 3 * i for i in range(n_partitions)]
        cfg = EngineConfig(n_partitions=n_partitions, dimension=dimension, alpha=alpha, threshold=1.0,
                           refresh_interval=refresh)
        eng = AllocationEngine(cfg, initial)
        for x in rng.uniform(0, 3 * n_partitions + 1, size=(60, dimension)):
            eng.ingest(x)
            centroids = np.concatenate([s.centroids for s in eng.synopses])
            offsets = np.cumsum([0] + [len(s.centroids) for s in eng.synopses])
            matrix = eng._matrix
            assert (matrix.centroids.shape, matrix.centroids.dtype) == (centroids.shape, centroids.dtype)
            # The kernel's memory order, at every M: its (M, rows) view contiguous.
            assert matrix.centroids.flags["F_CONTIGUOUS"]
            assert matrix.centroids.tobytes() == centroids.tobytes()
            assert (matrix.offsets.dtype, matrix.offsets.tobytes()) == (offsets.dtype, offsets.tobytes())
            assert_sums_of_a_fresh_build(eng)

    @pytest.mark.parametrize("dimension", [2, 8, 129])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sums_and_flag_equal_a_rebuild_after_drawn_publishes(self, dimension, data):
        """Zero, NaN and above-2^1020 rows (out of the bound), in and out, rows added and dropped."""
        n_partitions = data.draw(st.integers(1, 5))
        eng = AllocationEngine(EngineConfig(n_partitions=n_partitions, dimension=dimension),
                               [np.ones((2, dimension))] * n_partitions)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        huge = np.zeros(dimension)
        huge[:2] = 2.0**1020, 2.0**1019  # sums to 1.5 * 2^1020
        nan = np.ones(dimension)
        nan[-1] = np.nan
        for _ in range(data.draw(st.integers(1, 12))):
            pid = data.draw(st.integers(1, n_partitions))
            kinds = data.draw(st.lists(st.sampled_from(["zero", "huge", "nan", "plain"]), min_size=1, max_size=4))
            rows = [{"zero": np.zeros(dimension), "huge": huge, "nan": nan}.get(k, rng.uniform(0, 1e4, dimension))
                    for k in kinds]
            matrix, same_rows = eng._matrix, len(eng.synopses[pid - 1].centroids) == len(rows)
            offsets, sums = matrix.offsets.tobytes(), matrix.sums
            with np.errstate(over="ignore"):  # the sums and square sums of 2^1020
                eng._publish(pid, make_synopsis(rows, partition_id=pid))
            assert (eng._matrix is matrix) == same_rows and matrix.sums is sums
            assert matrix.offsets.tobytes() == offsets  # never patched: earlier scores read them
            assert_sums_of_a_fresh_build(eng)

    def test_sums_and_flag_follow_a_zero_row_in_and_out(self):
        eng = AllocationEngine(EngineConfig(n_partitions=2, dimension=2), [np.ones((3, 2)), 5 * np.ones((3, 2))])
        install_synopses(eng, [[[0.0, 0.0]], [[3.0, 4.0]]])
        assert not eng._matrix.bounded
        assert_sums_of_a_fresh_build(eng)
        steps = [  # (partition, centroids, patched in place, flag after)
            (1, [[1.0, 2.0]], True, True),
            (2, [[0.0, 0.0], [3.0, 4.0]], False, False),
            (2, [[5.0, 6.0], [3.0, 4.0]], True, True),
            (1, [[2.0**1020, 0.0]], True, True),
            (1, [[2.0**1020, 1e300]], True, False),
            (1, [[7.0, 1.0], [2.0, 2.0]], False, True),
        ]
        for pid, rows, in_place, bounded in steps:
            matrix = eng._matrix
            with np.errstate(over="ignore"):  # the square sums of 2^1020
                syn = make_synopsis(rows, partition_id=pid)
            eng._publish(pid, syn)
            assert (eng._matrix is matrix) == in_place and eng._matrix.bounded == bounded
            assert_sums_of_a_fresh_build(eng)


class TestFusedScoring:
    """allocate() scores all partitions in one pass; it must equal scoring each alone."""

    @given(published_synopses())
    @settings(max_examples=300, deadline=None)
    def test_allocate_equals_per_synopsis_scores(self, case):
        partitions, x, theta, k = case
        d = x.shape[0]
        cfg = EngineConfig(n_partitions=len(partitions), dimension=d, theta=theta, outlier_k=k)
        eng = AllocationEngine(cfg, [np.ones((1, d))] * len(partitions))
        install_synopses(eng, partitions)
        assert eng.audit().checks["synopsis_alpha_compliance"]

        chosen, scores = assert_allocate_matches_per_synopsis(eng, x)
        for rows, got in zip(partitions, scores):
            assert_same_score(got, first_best_row(x, rows, theta, k))
        sims = [s.similarity for s in scores]
        assert chosen == 1 + sims.index(max(sims))  # ties to the lowest id

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.2, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_ingest_matches_preceding_allocate(self, seed, k):
        # Partitions 1-2 publish several alpha-dominant clusters; partition 3's
        # points stay below alpha, so it publishes its 1-row root fallback.
        centers = np.array([[1.0, 1.0, 1.0], [6.0, 6.0, 6.0], [12.0, 2.0, 5.0]])
        scattered = np.array([[0.0, 9.0, 3.0], [20.0, 1.0, 8.0], [4.0, 30.0, 0.0]])
        initial = [np.repeat(centers + 10 * i, 4, axis=0) for i in range(2)] + [scattered]
        cfg = EngineConfig(n_partitions=3, dimension=3, alpha=3, threshold=0.5,
                           outlier_k=k, refresh_interval=2)
        eng = AllocationEngine(cfg, initial)
        assert [len(s.centroids) for s in eng.synopses] == [3, 3, 1]

        stream = np.random.default_rng(seed).uniform(0.0, 30.0, size=(30, 3))
        stream[0] = 0.0
        for x in stream:
            chosen, scores = assert_allocate_matches_per_synopsis(eng, x)
            rec = eng.ingest(x)
            assert rec.chosen == chosen
            assert rec.similarities() == [s.similarity for s in scores]
        assert eng.audit().ok

    def test_first_centroid_wins_a_tie_inside_a_partition(self):
        # One and two ulps away from x: distinct outcomes, similarity 1.0 for all.
        x = np.full(4, 1e8)
        a = x.copy()
        a[0] = np.nextafter(a[0], np.inf)
        b = a.copy()
        b[1] = np.nextafter(b[1], np.inf)
        eng = engine_around([[1.0] * 4, [2.0] * 4])
        install_synopses(eng, [[b, a, x], [a, x]])
        chosen, scores = assert_allocate_matches_per_synopsis(eng, x)
        assert chosen == 1
        assert [s.similarity for s in scores] == [1.0, 1.0]
        for got, first in zip(scores, [b, a]):
            assert got.pooled_dissimilarity > 0.0
            assert_same_score(got, ensemble_similarity(x, make_synopsis([first])))

    def test_overflowing_input_follows_argmax_nan_rule(self):
        # Finite input whose sums overflow: the metrics are NaN, and NaN counts
        # as the maximum, first one winning, as np.argmax does.
        eng = engine_around([[1.0, 2.0], [3.0, 4.0]])
        x = [1e308, 1e308]
        with np.errstate(all="ignore"):
            install_synopses(eng, [[[1.0, 2.0], [1e308, 1e308]], [[1e308, 5.0]]])
            chosen, scores = assert_allocate_matches_per_synopsis(eng, x)
            want = [ensemble_similarity(x, make_synopsis([r]), 0.1, 3.0) for r in [[1.0, 2.0], [1e308, 5.0]]]
        assert chosen == 1
        for got, w in zip(scores, want):
            assert math.isnan(got.similarity)
            assert_same_score(got, w)


@pytest.mark.parametrize("k", [1.2, 3.0])
class TestScoresOnRead:
    """allocate() returns its scores unbuilt; they are built on the first read.

    At k = 1.2 the outlier rule runs on the kernel; at k = 3.0 its 7 rows x 3
    components take the float path.
    """

    @staticmethod
    def _engine(k):
        # Partitions 1-2 publish three alpha-dominant clusters each; partition 3
        # publishes its 1-row root fallback. Every insert refreshes its partition.
        centers = np.array([[1.0, 1.0, 1.0], [6.0, 6.0, 6.0], [12.0, 2.0, 5.0]])
        scattered = np.array([[0.0, 9.0, 3.0], [20.0, 1.0, 8.0], [4.0, 30.0, 0.0]])
        initial = [np.repeat(centers + 10 * i, 4, axis=0) for i in range(2)] + [scattered]
        cfg = EngineConfig(n_partitions=3, dimension=3, alpha=3, threshold=0.5, outlier_k=k)
        eng = AllocationEngine(cfg, initial)
        assert _takes_float_path(eng._matrix, k) is (k == 3.0)
        return eng

    def test_late_reads_are_the_scores_as_of_the_call(self, k):
        eng = self._engine(k)
        cfg = eng.config
        x = np.array([2.0, 5.0, 3.0])
        chosen, scores = eng.allocate(x)
        kept = eng.synopses
        assert [len(s.centroids) for s in kept] == [3, 3, 1]

        restacks = patched = 0
        # Absorbs that move a published centroid, points for the fallback partition,
        # and three copies of a new point, which becomes a dominant cluster.
        stream = [[1.1, 1.0, 1.0], [16.2, 16.0, 15.9], [0.0, 9.0, 3.5], [4.0, 29.0, 0.5]] + [[9.0, 3.0, 0.0]] * 3
        for v in stream:
            rows, matrix = [len(s.centroids) for s in eng.synopses], eng._matrix
            eng.ingest(v)
            restacks += eng._matrix is not matrix
            patched += eng._matrix is matrix and rows == [len(s.centroids) for s in eng.synopses]
        assert restacks and patched
        assert [s.version for s in eng.synopses] != [s.version for s in kept]
        now = eng.allocate(x)[1]
        assert any(a.similarity != b.similarity for a, b in zip(scores, now))  # a stale read would show

        assert len(scores) == cfg.n_partitions
        for got, syn in zip(scores, kept):
            assert_same_score(got, ensemble_similarity(x, syn, cfg.theta, cfg.outlier_k))
        assert chosen == int(np.argmax([s.similarity for s in scores])) + 1
        assert scores[-1] is scores[2]
        assert scores[1:] == [scores[1], scores[2]]
        first, second = list(scores), list(iter(scores))
        assert all(a is b for a, b in zip(first, second)) and len(first) == len(second) == 3
        assert scores[0] in scores
        with pytest.raises(IndexError):
            scores[3]

    def test_scores_compare_by_value(self, k):
        # The generated __eq__ compared the weight arrays with ==, whose truth value raises.
        rows = np.repeat([[1.0, 1.0, 1.0], [6.0, 6.0, 6.0]], 4, axis=0)
        cfg = EngineConfig(n_partitions=3, dimension=3, alpha=3, threshold=0.5, outlier_k=k)
        eng = AllocationEngine(cfg, [rows] * 3)
        scores = eng.allocate([2.0, 5.0, 3.0])[1]
        assert scores[0] == scores[2] and scores[0] is not scores[2]
        assert scores.index(scores[2]) == 0
        assert scores[2] in scores
        assert scores.count(scores[0]) == 3

    def test_nothing_is_built_until_read(self, monkeypatch, k):
        built = []

        class CountingScore(synalloc.similarity.EnsembleScore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(synalloc.similarity, "EnsembleScore", CountingScore)
        eng = self._engine(k)
        chosen, scores = eng.allocate([2.0, 5.0, 3.0])
        assert built == []
        top = scores[chosen - 1]
        assert len(built) == eng.config.n_partitions and top is built[chosen - 1]
        assert list(scores) == built and scores[0] is built[0]
        assert len(built) == eng.config.n_partitions
