"""Cluster features, the CF-tree, and synopsis extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synalloc import ClusterFeature, CFTree, EmptyClusterError, VectorError, extract_synopsis, synopsis
from synalloc.validation import as_vector

from conftest import cf_of, tree_state


# ---------------------------------------------------------------- oracles

def brute_cf(points):
    """Recompute a CF from raw points, independently of the implementation."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return pts.shape[0], pts.sum(axis=0), (pts * pts).sum(axis=0)


def brute_radius(points):
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    c = pts.mean(axis=0)
    return float(np.sqrt(((pts - c) ** 2).sum(axis=1).mean()))


def walked_nodes(tree: CFTree, node: int | None = None) -> list[int]:
    """Id of every node reached from the root through child ids, parents before children."""
    node = tree._root if node is None else node
    children = [int(c) for c in tree._child[tree._nodes[node]] if c >= 0]
    return [node] + [n for c in children for n in walked_nodes(tree, c)]


def walked_leaves(tree: CFTree) -> list[int]:
    """Leaf entry ids reached by walking the tree, independently of ``leaf_entries``."""
    return [int(e) for n in walked_nodes(tree) for e in tree._nodes[n] if tree._child[e] < 0]


def naive_synopsis(tree: CFTree, alpha: int) -> list[ClusterFeature]:
    """Reference extraction: scan every leaf, keep count >= alpha, sort, root fallback."""
    cfs = [tree.entry_cf(e) for e in sorted(walked_leaves(tree))]  # ids ascend in creation order
    dom = sorted((cf for cf in cfs if cf.count >= alpha), key=lambda cf: -cf.count)  # stable
    return dom or [tree.root_cf()]


def merge_fold(cfs: list[ClusterFeature]) -> ClusterFeature:
    """The CFs merged left to right."""
    out = cfs[0]
    for cf in cfs[1:]:
        out = out.merge(cf)
    return out


def reference_consistency_issues(tree: CFTree) -> list[str]:
    """``CFTree.consistency_issues`` as a breadth-first loop with a path string per node: the audit's reference."""
    issues: list[str] = []
    count, child = tree.counts, tree._child[: tree._n]
    nodes = tree._nodes  # what the audit reads: ids outside the table dropped, and reported below
    off_table: dict[int, list[int]] = {}
    listed_ids = np.concatenate(nodes)
    if ((listed_ids < 0) | (listed_ids >= tree._n)).any():
        nodes = list(nodes)
        for k, ids in enumerate(tree._nodes):
            if (bad := (ids < 0) | (ids >= tree._n)).any():
                off_table[k], nodes[k] = ids[bad].tolist(), ids[~bad]
    if not 0 <= tree._root < len(nodes):  # every check below reads the walk from the root
        return [f"root node id {tree._root} outside the {len(nodes)} nodes"]
    order, paths, depths = [tree._root], ["root"], [0]  # per walked node, parents before children
    seen = [False] * len(nodes)
    seen[tree._root] = True
    cut: list[tuple[int, int, int]] = []  # (walk index, position, child) of each pointer not followed
    for k, node in enumerate(order):  # breadth first: order grows as the walk goes
        for i, c in enumerate(child[nodes[node]].tolist()):
            if 0 <= c < len(nodes) and not seen[c]:
                seen[c] = True
                order.append(c)
                paths.append(f"{paths[k]}[{i}]")
                depths.append(depths[k] + 1)
            elif c >= 0:  # past the node list, or reached twice
                cut.append((k, i, c))
    sizes = [len(nodes[node]) for node in order]
    rows = np.concatenate([nodes[node] for node in order])  # every entry id, as often as a node lists it
    node_of = np.repeat(np.arange(len(order)), sizes)
    first = np.cumsum([0, *sizes])  # walk position of each walked node's first entry

    def label(k: int) -> str:  # the path of the entry at walk position k
        return f"{paths[node_of[k]]}[{k - first[node_of[k]]}]"

    for k, node in enumerate(order):
        if node in off_table:
            issues.append(f"{paths[k]}: entry ids {off_table[node]} outside the table of {tree._n} rows")
    for k in np.flatnonzero(np.array(sizes) > tree.branching_factor).tolist():
        issues.append(f"{paths[k]}: {sizes[k]} entries > B")
    leaf_depth = tree._height(nodes) - 1
    at_leaf_depth = np.array(depths) == leaf_depth
    for k in dict.fromkeys(node_of[(child[rows] < 0) != at_leaf_depth[node_of]].tolist()):  # once per node
        kind = "inner" if at_leaf_depth[k] else "leaf"
        issues.append(f"{paths[k]}: {kind} entry at depth {depths[k]} of a height-{leaf_depth + 1} tree")
    for k, i, c in cut:
        fault = f"past the {len(nodes)} nodes" if c >= len(nodes) else "reached twice: a cycle or a shared node"
        issues.append(f"{paths[k]}[{i}]: child node {c} {fault}")

    listed = np.bincount(rows, minlength=tree._n)
    if (bad := np.flatnonzero(listed != 1)).size:
        issues.append(f"{bad.size} entries not listed exactly once under the root "
                      f"(entry {bad[0]}: {listed[bad[0]]} times)")
    fresh = np.zeros(tree._n, dtype=bool)  # a row the cache table lacks counts as stale
    cached = min(tree._n, len(tree._cent))
    for lo in range(0, cached, synopsis.AUDIT_BATCH_ROWS):
        hi = min(lo + synopsis.AUDIT_BATCH_ROWS, cached)
        fresh[lo:hi] = (tree._cent[lo:hi] == tree._ls[lo:hi] / count[lo:hi, None]).all(axis=1)
    for k in dict.fromkeys(node_of[~fresh[rows]].tolist()):  # once per node
        issues.append(f"{paths[k]}: stale centroid cache")

    leaves = np.flatnonzero(child[rows] < 0)  # walk positions of the leaf entries
    n = count[rows[leaves]]
    r = synopsis._radii(n, tree._ls[rows[leaves]], tree._ss[rows[leaves]])
    for k in np.flatnonzero((n >= 2) & (r > tree.threshold + 1e-9)):
        issues.append(f"{label(leaves[k])}: radius {r[k]:.6g} > T")

    followed = child[rows] >= 0
    followed[[first[k] + i for k, i, _ in cut]] = False
    inner = np.flatnonzero(followed)  # walk positions of the inner entries the walk followed
    kids = [nodes[c] for c in child[rows[inner]].tolist()]
    seg = np.repeat(np.arange(len(kids)), [len(ids) for ids in kids])
    kids = np.concatenate([rows[:0], *kids])

    def child_sums(col: np.ndarray) -> np.ndarray:
        out = np.zeros((len(inner), *col.shape[1:]), dtype=col.dtype)
        np.add.at(out, seg, col[kids])
        return out

    got, want = count[rows[inner]], child_sums(count)
    for k in np.flatnonzero(got != want):
        issues.append(f"{label(inner[k])}: count {got[k]} != child sum {want[k]}")
    for name, col in (("linear_sum", tree._ls), ("square_sum", tree._ss)):
        # np.allclose, row by row
        close = np.isclose(col[rows[inner]], child_sums(col), rtol=synopsis.CF_SUM_RTOL, atol=1e-12).all(axis=1)
        for k in inner[~close]:
            issues.append(f"{label(k)}: {name} differs from child sum")

    mass = int(n.sum())
    if mass != tree.total_points:
        issues.append(f"mass {mass} != inserted {tree.total_points}")
    if tree._dominant_alpha is not None:
        want = np.flatnonzero((child < 0) & (count >= tree._dominant_alpha))
        if not np.array_equal(np.sort(tree._dominant[: tree._n_dominant]), want):  # missing, extra or duplicated
            issues.append(f"dominant registry out of sync with leaf counts at alpha {tree._dominant_alpha}")
    return issues


def reference_insert(tree: CFTree, x) -> tuple[int, bool]:
    """``CFTree.insert`` as it was before its trusted path: the insert's reference.

    It validates every vector, calls a nearest-centroid helper per level, builds a new
    leaf row by division, and tries a split after every node it grows.
    """
    v = as_vector(x, tree.dimension, nonneg=True)
    vv = v * v
    path = []
    node = tree._root
    while len(ids := tree._nodes[node]):
        i = _reference_nearest(tree._cent.take(ids, axis=0), v)
        e = int(ids[i])
        if (child := int(tree._child[e])) < 0:
            break
        path.append((node, i, e))
        node = child

    absorbs = False
    if len(ids):
        n = int(tree._count[e]) + 1
        ls = tree._ls[e] + v
        r2 = (np.add.reduce(tree._ss[e]) + float(v @ v)) / n - float(ls @ ls) / (n * n)
        absorbs = r2 <= tree.threshold * tree.threshold
    if absorbs:
        leaf = e
        path.append((node, i, e))
    else:
        leaf = _reference_add_row(tree, 1, v.copy(), vv, -1)
        tree._nodes[node] = np.concatenate((ids, [leaf]))
        split = _reference_split(tree, node)
        while split is not None and path:
            node, i, e = path.pop()
            _reference_set_row(tree, e, *_reference_fold(tree, tree._nodes[int(tree._child[e])]))
            half = _reference_add_row(tree, *_reference_fold(tree, tree._nodes[split]), split)
            ids = tree._nodes[node]
            tree._nodes[node] = np.concatenate((ids[: i + 1], [half], ids[i + 1 :]))
            split = _reference_split(tree, node)
        if split is not None:
            halves = [_reference_add_row(tree, *_reference_fold(tree, tree._nodes[k]), k) for k in (node, split)]
            tree._nodes.append(np.array(halves, dtype=np.intp))
            tree._root = len(tree._nodes) - 1
    for _, _, e in path:
        tree._count[e] = n = tree._count[e] + 1
        ls = tree._ls[e]
        ls += v
        ss = tree._ss[e]
        ss += vv
        np.divide(ls, n, out=tree._cent[e])

    tree.total_points += 1
    if tree._count[leaf] == tree._dominant_alpha:
        if tree._n_dominant == len(tree._dominant):
            tree._dominant = np.resize(tree._dominant, max(8, 2 * tree._n_dominant))
        tree._dominant[tree._n_dominant] = leaf
        tree._n_dominant += 1
    return leaf, bool(tree._count[leaf] == 1)


def _reference_nearest(cents, x) -> int:
    return int(np.add.reduce(np.square(cents - x), axis=1).argmin())


def _reference_add_row(tree: CFTree, count, linear_sum, square_sum, child) -> int:
    e = tree._n
    if e == len(tree._count):
        for name in ("_count", "_ls", "_ss", "_cent", "_child"):
            old = getattr(tree, name)
            grown = np.empty((max(8, 2 * e), *old.shape[1:]), dtype=old.dtype)
            grown[:e] = old
            setattr(tree, name, grown)
    tree._n = e + 1
    tree._child[e] = child
    _reference_set_row(tree, e, count, linear_sum, square_sum)
    return e


def _reference_set_row(tree: CFTree, e, count, linear_sum, square_sum) -> None:
    tree._count[e] = count
    tree._ls[e] = linear_sum
    tree._ss[e] = square_sum
    tree._cent[e] = linear_sum / count


def _reference_fold(tree: CFTree, ids):
    return (sum(tree._count[ids].tolist()), np.add.accumulate(tree._ls.take(ids, axis=0))[-1],
            np.add.accumulate(tree._ss.take(ids, axis=0))[-1])


def _reference_split(tree: CFTree, node):
    ids = tree._nodes[node]
    if len(ids) <= tree.branching_factor:
        return None
    cents = tree._cent.take(ids, axis=0)
    d2 = np.square(cents[:, None, :] - cents[None, :, :]).sum(axis=2)
    if d2.max() == 0.0:
        a, b = 0, 1
    else:
        a, b = np.unravel_index(int(np.argmax(d2)), d2.shape)
    to_b = d2[:, a] > d2[:, b]
    to_b[a], to_b[b] = False, True
    tree._nodes[node] = ids[~to_b]
    tree._nodes.append(ids[to_b])
    return len(tree._nodes) - 1


# Magnitudes stay modest: the SS - LS^2/L cancellation makes the *radius* of a
# tight cluster of huge values meaningless in float64 (a known CF limitation,
# exercised separately below); sums themselves stay exact far beyond this range.
point_sets = st.integers(1, 12).flatmap(
    lambda d: st.lists(
        hnp.arrays(
            np.float64,
            d,
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=30,
    )
)


# ---------------------------------------------------------------- CF math

class TestClusterFeature:
    def test_from_point(self):
        cf = ClusterFeature.from_point([2.0, -1.0])
        assert cf.count == 1
        assert np.array_equal(cf.linear_sum, [2.0, -1.0])
        assert np.array_equal(cf.square_sum, [4.0, 1.0])
        assert cf.radius() == 0.0

    def test_three_point_merge_is_exact(self):
        cf = cf_of([(1.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
        assert cf.count == 3
        assert np.array_equal(cf.linear_sum, [5.0, 7.0])
        assert np.array_equal(cf.square_sum, [11.0, 19.0])
        # exact radius of this triangle is 4/3
        assert cf.radius() == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert np.allclose(cf.centroid(), [5.0 / 3.0, 7.0 / 3.0], atol=1e-15)

    @given(point_sets)
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_bruteforce(self, pts):
        cf = cf_of(pts)
        n, ls, ss = brute_cf(pts)
        assert cf.count == n
        assert np.allclose(cf.linear_sum, ls, rtol=1e-9, atol=1e-6)
        assert np.allclose(cf.square_sum, ss, rtol=1e-9, atol=1e-6)
        assert cf.radius() == pytest.approx(brute_radius(pts), rel=1e-6, abs=1e-4)

    @given(point_sets.filter(lambda pts: len(pts) >= 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_merge_split_invariance(self, pts, data):
        """Any two-way split of a point set merges back to the same CF."""
        cut = data.draw(st.integers(1, len(pts) - 1))
        merged = cf_of(pts[:cut]).merge(cf_of(pts[cut:]))
        whole = cf_of(pts)
        assert merged.count == whole.count
        assert np.allclose(merged.linear_sum, whole.linear_sum, rtol=1e-12, atol=1e-9)
        assert np.allclose(merged.square_sum, whole.square_sum, rtol=1e-12, atol=1e-9)

    def test_merge_is_commutative(self):
        a = cf_of([(1.0, 2.0), (3.0, 4.0)])
        b = cf_of([(5.0, 6.0)])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        assert np.array_equal(ab.linear_sum, ba.linear_sum)
        assert np.array_equal(ab.square_sum, ba.square_sum)

    def test_merge_leaves_operands_untouched(self):
        a = cf_of([(1.0,)])
        b = cf_of([(2.0,)])
        a.merge(b)
        assert a.count == 1 and np.array_equal(a.linear_sum, [1.0])

    def test_merge_dimension_mismatch(self):
        with pytest.raises(VectorError):
            cf_of([(1.0, 2.0)]).merge(cf_of([(1.0,)]))

    def test_empty_centroid_raises(self):
        with pytest.raises(EmptyClusterError):
            ClusterFeature.empty(3).centroid()

    def test_radius_never_negative_under_cancellation(self):
        # many identical points far from the origin stress the SS - LS^2/L cancellation
        cf = cf_of([(1e8, 1e8)] * 25)
        assert cf.radius() >= 0.0
        assert cf.radius() == pytest.approx(0.0, abs=1e-4)

    def test_variance_matches_numpy(self, rng):
        pts = rng.normal(5.0, 2.0, size=(40, 3))
        cf = cf_of(pts)
        assert np.allclose(cf.variance(), pts.var(axis=0), rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------- tree

class TestCFTree:
    def test_absorbs_points_within_threshold(self):
        tree = CFTree(dimension=2, threshold=1.5)
        for p in [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0)]:
            tree.insert(np.array(p))
        entries = tree.leaf_entries()
        assert len(entries) == 1
        cf = tree.entry_cf(entries[0])
        assert cf.count == 3
        assert np.array_equal(cf.linear_sum, [5.0, 7.0])
        assert np.array_equal(cf.square_sum, [11.0, 19.0])

    def test_tight_threshold_keeps_points_apart(self):
        tree = CFTree(dimension=1, threshold=0.1)
        for v in (0.0, 10.0, 20.0):
            tree.insert(np.array([v]))
        assert len(tree.leaf_entries()) == 3

    def test_splits_grow_the_tree(self):
        tree = CFTree(dimension=1, threshold=0.1, branching_factor=3)
        for v in range(10):
            tree.insert(np.array([float(v * 10)]))
        assert tree.height() > 1
        assert tree.consistency_issues() == []
        assert tree.root_cf().count == 10

    def test_nearest_breaks_ties_toward_lowest_index(self):
        tree = CFTree(dimension=1, threshold=1.0)
        assert [tree.insert(np.array([x])) for x in (0.0, 3.0)] == [(0, True), (1, True)]
        assert tree.insert(np.array([1.5])) == (0, False)  # as near to 3 as to 0: the first entry absorbs it

    def test_insert_reports_new_vs_absorbed(self):
        tree = CFTree(dimension=1, threshold=5.0)
        _, created = tree.insert(np.array([0.0]))
        assert created
        _, created = tree.insert(np.array([1.0]))
        assert not created

    def test_registry_matches_traversal(self, rng):
        tree = CFTree(dimension=3, threshold=0.8, branching_factor=4)
        for row in rng.uniform(0.0, 12.0, size=(300, 3)):
            tree.insert(row)

        assert sorted(walked_leaves(tree)) == tree.leaf_entries().tolist()

    def test_mass_conservation_random_inserts(self, rng):
        tree = CFTree(dimension=2, threshold=0.5, branching_factor=5)
        pts = np.abs(rng.normal(10.0, 4.0, size=(1000, 2)))
        for row in pts:
            tree.insert(row)
        assert tree.root_cf().count == 1000
        assert tree.counts[tree.leaf_entries()].sum() == 1000
        assert np.allclose(tree.root_cf().linear_sum, pts.sum(axis=0), rtol=1e-9)
        assert tree.consistency_issues() == []

    @given(
        st.lists(
            hnp.arrays(np.float64, 2, elements=st.floats(0, 100, allow_nan=False)),
            min_size=1,
            max_size=120,
        ),
        st.floats(0.05, 20.0),
        st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_consistency_for_arbitrary_streams(self, pts, threshold, branching):
        tree = CFTree(dimension=2, threshold=threshold, branching_factor=branching)
        for row in pts:
            tree.insert(row)
        assert tree.consistency_issues() == []
        assert tree.root_cf().count == len(pts)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(
                hnp.arrays(np.float64, d, elements=st.floats(0, 1e6, allow_nan=False)),
                min_size=1,
                max_size=80,
            )
        ),
        st.floats(0.1, 10.0),
        st.integers(2, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_centroid_cache_matches_a_rebuild_after_every_insert(self, pts, threshold, branching):
        tree = CFTree(dimension=len(pts[0]), threshold=threshold, branching_factor=branching)
        for row in pts:
            tree.insert(row)
            for node in walked_nodes(tree):
                ids = tree._nodes[node]
                want = [tree.entry_cf(e).centroid() for e in ids]
                assert tree._cent[ids].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("branching", [3, 12, 16])
    def test_sums_fold_in_entry_order_at_dimension_one(self, rng, branching):
        """The root CF and every parent entry a split makes equal an in-order merge, bit for bit.

        At dimension 1 numpy's ``sum(axis=0)`` adds pairwise, which can differ from the merge.
        """
        tree = CFTree(dimension=1, threshold=0.05, branching_factor=branching)
        for x in rng.uniform(0.0, 100.0, size=(600, 1)):
            rows_before = tree._n
            tree.insert(x)
            checks = [(tree.root_cf(), tree._nodes[tree._root])]  # (CF, the rows it must fold)
            checks += [(tree.entry_cf(e), tree._nodes[tree._child[e]])  # parent rows this insert made
                       for e in range(rows_before, tree._n) if tree._child[e] >= 0]
            for got, ids in checks:
                want = merge_fold([tree.entry_cf(e) for e in ids])
                assert got.count == want.count
                assert got.linear_sum.tobytes() == want.linear_sum.tobytes()
                assert got.square_sum.tobytes() == want.square_sum.tobytes()
        assert tree.height() > 2

    @staticmethod
    def _audited_tree(rng):
        """A tree of height > 2."""
        tree = CFTree(dimension=2, threshold=0.5, branching_factor=3)
        for row in rng.uniform(0.0, 10.0, size=(60, 2)):
            tree.insert(row)
        assert tree.height() > 2 and tree.consistency_issues() == []
        return tree

    @pytest.mark.parametrize("batch", [1, 7, None])
    @pytest.mark.parametrize("fault", ["root", "leaf", "missing_row"])
    def test_audit_reports_a_stale_centroid_cache(self, rng, monkeypatch, batch, fault):
        """The cache check compares ``batch`` rows per numpy call (None: the default)."""
        if batch is not None:
            monkeypatch.setattr(synopsis, "AUDIT_BATCH_ROWS", batch)
        tree = self._audited_tree(rng)
        if fault == "missing_row":  # the cache table lacks the newest row
            tree._cent = tree._cent[: tree._n - 1]
        else:
            node = tree._root if fault == "root" else walked_nodes(tree)[-1]
            e = tree._nodes[node][-1]
            tree._cent[e, 0] = np.nextafter(tree._cent[e, 0], np.inf)
        stale = [i for i in tree.consistency_issues() if "stale centroid cache" in i]
        assert len(stale) == 1
        assert (stale[0] == "root: stale centroid cache") == (fault == "root")

    NODE_LIST_FAULTS = {  # fault -> what the audit must report
        "listed_twice": "entries not listed exactly once under the root",
        "unlisted": "entries not listed exactly once under the root",
        "leaf_above_leaf_depth": "root: leaf entry at depth 0 of a height-",
        "inner_at_leaf_depth": "inner entry at depth",
        "empty_node": "!= child sum 0",
        "overfull": "entries > B",
        "id_past_table": "outside the table of",
        "negative_id": "entry ids [-1] outside the table of",
        "root_id_past_table": "root: entry ids [",
        "child_past_nodes": "past the",
        "child_cycle": "root[0]: child node",
        "root_past_nodes": "root node id ",
        "root_negative": "root node id -1 outside the",  # -1 indexes the last node, which is the root
    }

    @pytest.mark.parametrize("fault", list(NODE_LIST_FAULTS))
    def test_audit_reports_a_broken_node_list(self, rng, fault):
        tree = self._audited_tree(rng)
        node = walked_nodes(tree)[-1]  # the last leaf node: off the path height() follows
        ids = tree._nodes[node]
        if fault == "listed_twice":
            tree._nodes[node] = np.append(ids, ids[0])
        elif fault == "unlisted":
            tree._nodes[node] = ids[:-1]
        elif fault == "leaf_above_leaf_depth":
            tree._child[tree._nodes[tree._root][-1]] = -1
        elif fault == "inner_at_leaf_depth":
            tree._child[ids[-1]] = node
        elif fault == "empty_node":
            tree._nodes[node] = ids[:0]
        elif fault == "id_past_table":
            tree._nodes[node] = np.append(ids, tree._n + 5)
        elif fault == "negative_id":
            tree._nodes[node] = np.append(ids, -1)
        elif fault == "root_id_past_table":  # first, where height() looks
            tree._nodes[tree._root] = np.insert(tree._nodes[tree._root], 0, len(tree._child))
        elif fault == "child_past_nodes":
            tree._child[tree._nodes[tree._root][-1]] = len(tree._nodes) + 3
        elif fault == "child_cycle":  # on the path height() follows
            tree._child[tree._nodes[tree._root][0]] = tree._root
        elif fault == "root_past_nodes":
            tree._root = len(tree._nodes) + 1
        elif fault == "root_negative":
            assert tree._root == len(tree._nodes) - 1
            tree._root = -1
        else:
            tree.branching_factor = 1
        assert any(self.NODE_LIST_FAULTS[fault] in i for i in tree.consistency_issues())

    @pytest.mark.parametrize("fault", ["radius", "count", "mass"])
    def test_audit_reports_a_broken_entry_row(self, rng, fault):
        tree = self._audited_tree(rng)
        leaf = next(e for e in tree.leaf_entries() if tree.counts[e] >= 2)
        if fault == "radius":  # spread the points far beyond the threshold
            tree._ss[leaf] *= 4.0
        elif fault == "count":
            tree._count[tree._nodes[tree._root][0]] += 1
        else:
            tree.total_points += 1
        issue = {"radius": "> T", "count": "count", "mass": "mass"}[fault]
        assert [i for i in tree.consistency_issues() if issue in i]

    @pytest.mark.parametrize("name", ["linear_sum", "square_sum"])
    def test_audit_reports_a_parent_sum_that_differs_from_its_children(self, rng, name):
        tree = self._audited_tree(rng)
        column = {"linear_sum": tree._ls, "square_sum": tree._ss}[name]
        column[tree._nodes[tree._root][1], 1] *= 1.0 + 1e-6
        assert [i for i in tree.consistency_issues() if "differs" in i] == [
            f"root[1]: {name} differs from child sum"
        ]

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(hnp.arrays(np.float64, d, elements=st.floats(0, 10, allow_nan=False)),
                               min_size=10, max_size=80)
        ),
        st.floats(0.05, 5.0),
        st.integers(2, 5),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_audit_reports_a_corrupt_pointer_and_never_raises(self, pts, threshold, branching, in_child, data):
        """One child pointer, or one listed entry id, set to any value in or just outside its range."""
        tree = CFTree(dimension=len(pts[0]), threshold=threshold, branching_factor=branching)
        for row in pts:
            tree.insert(row)
        if in_child:
            e = data.draw(st.integers(0, tree._n - 1))
            old, new = int(tree._child[e]), data.draw(st.integers(-2, len(tree._nodes) + 2))
            tree._child[e] = new
            changed = new != old and not (new < 0 and old < 0)  # every negative child is a leaf
        else:
            node = data.draw(st.integers(0, len(tree._nodes) - 1))
            i = data.draw(st.integers(0, len(tree._nodes[node]) - 1))
            old, new = int(tree._nodes[node][i]), data.draw(st.integers(-2, tree._n + 2))
            tree._nodes[node][i] = new
            changed = new != old
        assert bool(tree.consistency_issues()) == changed

    AUDIT_FAULTS = ["child", "listed_id", "truncated", "emptied", "listed_twice", "copied", "root"]

    @staticmethod
    def _corrupt(tree, fault, data):
        """Apply one ``fault``, its place and value drawn from ``data``, to ``tree``."""
        node = data.draw(st.integers(0, len(tree._nodes) - 1))
        ids = tree._nodes[node]
        if fault == "child":  # any pointer, in range or not, or one an inner entry already holds
            inner = np.flatnonzero(tree._child[: tree._n] >= 0).tolist() or [0]
            e = data.draw(st.integers(0, tree._n - 1) | st.sampled_from(inner))
            held = st.sampled_from(tree._child[inner].tolist())
            tree._child[e] = data.draw(st.integers(-2, len(tree._nodes) + 2) | held)
        elif fault == "listed_id" and len(ids):
            ids[data.draw(st.integers(0, len(ids) - 1))] = data.draw(st.integers(-2, tree._n + 2))
        elif fault == "truncated":
            tree._nodes[node] = ids[: data.draw(st.integers(0, len(ids)))]
        elif fault == "emptied":
            tree._nodes[node] = ids[:0]
        elif fault == "listed_twice" and len(ids):
            tree._nodes[node] = np.append(ids, ids[data.draw(st.integers(0, len(ids) - 1))])
        elif fault == "copied":  # two nodes list the same entries
            tree._nodes[node] = tree._nodes[data.draw(st.integers(0, len(tree._nodes) - 1))].copy()
        elif fault == "root":
            tree._root = data.draw(st.integers(-1, len(tree._nodes)))

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(hnp.arrays(np.float64, d, elements=st.floats(0, 10, allow_nan=False)),
                               min_size=10, max_size=120)
        ),
        st.floats(0.05, 5.0),
        st.integers(2, 5),
        st.lists(st.sampled_from(AUDIT_FAULTS), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_audit_matches_the_reference_walk(self, pts, threshold, branching, faults, data):
        """After 1-3 corruptions, the same issues as the breadth-first reference, string for string and in order."""
        tree = CFTree(dimension=len(pts[0]), threshold=threshold, branching_factor=branching)
        for row in pts:
            tree.insert(row)
        for fault in faults:
            self._corrupt(tree, fault, data)
        assert tree.consistency_issues() == reference_consistency_issues(tree)

    def test_audit_passes_a_deep_healthy_tree(self, rng):
        tree = CFTree(dimension=2, threshold=0.01, branching_factor=3)
        for row in rng.uniform(0.0, 10.0, size=(400, 2)):
            tree.insert(row)
        assert tree.height() >= 6
        assert tree.consistency_issues() == [] == reference_consistency_issues(tree)

    def test_audit_follows_the_first_of_two_pointers_to_a_node_in_one_level(self, rng):
        tree = self._audited_tree(rng)
        first, second = (tree._nodes[tree._child[e]][0] for e in tree._nodes[tree._root][:2])  # root[0][0], root[1][0]
        shared = int(tree._child[first])
        tree._child[second] = shared
        issues = tree.consistency_issues()
        assert f"root[1][0]: child node {shared} reached twice: a cycle or a shared node" in issues
        assert not [i for i in issues if i.startswith("root[0][0]: child node")]
        assert issues == reference_consistency_issues(tree)

    def test_rejects_bad_vectors(self):
        tree = CFTree(dimension=2, threshold=1.0)
        with pytest.raises(VectorError):
            tree.insert(np.array([1.0]))
        with pytest.raises(VectorError):
            tree.insert(np.array([np.nan, 1.0]))
        with pytest.raises(VectorError):
            tree.insert(np.array([-0.5, 1.0]))

    @pytest.mark.parametrize("bad", [[1.0], [np.nan, 1.0], [-0.5, 1.0], [np.inf, 0.0], [[1.0, 1.0]]])
    def test_a_public_insert_still_validates_and_a_rejected_one_writes_nothing(self, rng, bad):
        tree = CFTree(dimension=2, threshold=0.5, branching_factor=3)
        for row in rng.uniform(0.0, 10.0, size=(40, 2)):
            tree.insert(row)
        before = tree_state(tree)
        with pytest.raises(VectorError):
            tree.insert(bad)
        assert tree_state(tree) == before
        with pytest.raises(TypeError):
            tree.insert(np.ones(2), True)  # the trust flag is keyword-only

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_insert_matches_the_reference_after_every_insert(self, data):
        """Twin trees, one through ``insert`` and one through ``reference_insert``, stay byte-identical.

        Dimensions reach 9, past the 8 from which numpy sums a row pairwise. Rows repeat and
        include zero rows; at T = 1e-12 a repeated row can fail the absorb test by round-off,
        so nodes of coincident centroids split on the degenerate (0, 1) seeds.
        """
        d = data.draw(st.integers(1, 9), label="dimension")
        branching = data.draw(st.integers(2, 16), label="branching")
        threshold = data.draw(st.sampled_from([1e-12, 1e-6, 0.1, 1.0, 5.0, 1e3]) | st.floats(1e-3, 1e3),
                              label="threshold")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        pool = rng.uniform(0.0, 100.0, size=(data.draw(st.integers(1, 60), label="distinct rows"), d))
        pool[: data.draw(st.integers(0, 2), label="zero rows")] = 0.0
        picks = rng.integers(0, len(pool), size=data.draw(st.integers(1, 200), label="inserts"))
        alpha = data.draw(st.none() | st.integers(1, 4), label="alpha")
        trusted = data.draw(st.booleans(), label="validated")
        tree, ref = CFTree(d, threshold, branching), CFTree(d, threshold, branching)
        if alpha is not None:  # track the dominant registry from the start
            tree.dominant_entries(alpha)
            ref.dominant_entries(alpha)
        for k in picks.tolist():
            got = tree.insert(pool[k], validated=trusted)
            assert got == reference_insert(ref, pool[k]) and type(got[1]) is bool
            assert tree_state(tree) == tree_state(ref)

    def test_config_validation(self):
        from synalloc import ConfigError

        with pytest.raises(ConfigError):
            CFTree(dimension=0, threshold=1.0)
        with pytest.raises(ConfigError):
            CFTree(dimension=2, threshold=-1.0)
        with pytest.raises(ConfigError):
            CFTree(dimension=2, threshold=1.0, branching_factor=1)

    def test_rejects_a_none_threshold(self):
        from synalloc import ConfigError, EngineConfig

        with pytest.raises(ConfigError, match="^threshold must be positive"):
            CFTree(2, None)
        assert EngineConfig(threshold=None).threshold is None  # the engine scales it to each partition's data

    @pytest.mark.parametrize("field", ["dimension", "branching_factor"])
    @pytest.mark.parametrize("value", [2.0, 2.5])
    def test_rejects_non_integer_sizes(self, field, value):
        from synalloc import ConfigError

        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            CFTree(**{"dimension": 2, "threshold": 1.0, "branching_factor": 4, field: value})

    def test_accepts_numpy_integer_sizes(self):
        from synalloc import ConfigError

        tree = CFTree(np.int64(2), 1.0, np.int32(3))
        for x in [[0.0, 0.0], [9.0, 9.0], [0.1, 0.0], [20.0, 0.0], [0.0, 20.0]]:
            tree.insert(x)
        assert tree.consistency_issues() == []
        assert list(tree.dominant_entries(np.int64(2))) == [0]
        assert sorted(tree.dominant_entries(np.int64(1))) == [0, 1, 2, 3]  # the minimum
        with pytest.raises(ConfigError, match="^alpha must be >= 1$"):
            tree.dominant_entries(0)
        tree = CFTree(np.int64(1), 1.0, np.int64(2))  # the minima
        for x in [[0.0], [9.0], [20.0], [40.0]]:
            tree.insert(x)
        assert tree.height() == 2 and tree.consistency_issues() == []

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_dominant_entries_rejects_a_non_integer_alpha(self, alpha):
        from synalloc import ConfigError

        tree = CFTree(dimension=2, threshold=1.0)
        tree.insert([1.0, 1.0])
        with pytest.raises(ConfigError, match="^alpha must be an integer"):
            tree.dominant_entries(alpha)
        assert tree._dominant_alpha is None  # nothing registered

    @pytest.mark.parametrize("field,value", [
        ("dimension", 0), ("threshold", float("nan")), ("branching_factor", 1),
    ])
    def test_tree_and_engine_config_reject_the_same_tree_params(self, field, value):
        from synalloc import ConfigError, EngineConfig

        message = {"dimension": "dimension must be >= 1", "threshold": "threshold must be positive",
                   "branching_factor": "branching_factor must be >= 2"}[field]
        params = {"dimension": 2, "threshold": 1.0, "branching_factor": 4, field: value}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            CFTree(**params)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            EngineConfig(**params)


# ---------------------------------------------------------------- synopsis

class TestExtractSynopsis:
    def _tree_with_clusters(self, sizes, spacing=100.0):
        """One micro-cluster per size, spaced far enough apart to stay separate."""
        tree = CFTree(dimension=1, threshold=2.0)
        for i, size in enumerate(sizes):
            for _ in range(size):
                tree.insert(np.array([i * spacing]))
        return tree

    def test_filters_below_alpha(self):
        tree = self._tree_with_clusters([60, 3, 55])
        syn = extract_synopsis(tree, alpha=50, partition_id=2, version=7)
        assert [cf.count for cf in syn.dominant] == [60, 55]
        assert syn.partition_id == 2 and syn.version == 7

    def test_sorted_by_count_then_creation_order(self):
        tree = self._tree_with_clusters([40, 70, 40, 90])
        syn = extract_synopsis(tree, alpha=40, partition_id=1, version=1)
        assert [cf.count for cf in syn.dominant] == [90, 70, 40, 40]
        # equal counts keep creation order: cluster at 0.0 precedes cluster at 200.0
        assert syn.centroids[2][0] == pytest.approx(0.0)
        assert syn.centroids[3][0] == pytest.approx(200.0)

    def test_root_fallback_when_nothing_dominant(self):
        tree = self._tree_with_clusters([5, 5])
        syn = extract_synopsis(tree, alpha=50, partition_id=1, version=1)
        assert len(syn.dominant) == 1
        assert syn.dominant[0].count == 10
        assert np.allclose(syn.centroids[0], tree.root_cf().centroid())

    @given(st.sampled_from([1, 2, 5, 8, 129]), st.sampled_from([2, 3, 8, 16]), st.integers(0, 2**32 - 1),
           st.integers(1, 60), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_root_fallback_is_the_root_cf_bit_for_bit(self, dimension, branching, seed, n, threshold):
        """Below alpha the one row equals ``root_cf()`` and an in-order merge of the root's entries."""
        tree = CFTree(dimension, threshold, branching)
        for x in np.random.default_rng(seed).uniform(0.0, 20.0, size=(n, dimension)):
            tree.insert(x)
            syn = extract_synopsis(tree, alpha=n + 1, partition_id=1, version=1)
            assert syn.counts.dtype == np.int64
            for cf in (tree.root_cf(), merge_fold([tree.entry_cf(e) for e in tree._nodes[tree._root]])):
                assert syn.counts.tolist() == [cf.count]
                for got, want in ((syn.linear_sums, cf.linear_sum), (syn.square_sums, cf.square_sum),
                                  (syn.centroids, cf.centroid())):
                    assert got.shape == (1, dimension) and got.tobytes() == want.tobytes()

    def test_centroids_align_with_dominant(self):
        tree = self._tree_with_clusters([80, 60])
        syn = extract_synopsis(tree, alpha=10, partition_id=1, version=1)
        assert syn.centroids.shape == (2, 1)
        for cf, row in zip(syn.dominant, syn.centroids):
            assert np.allclose(row, cf.centroid())

    def test_synopsis_is_a_snapshot(self):
        fields = ("counts", "linear_sums", "square_sums", "centroids")
        for alpha, rows in ((40, 3), (500, 1)):  # three dominant rows; the root fallback
            tree = self._tree_with_clusters([60, 50, 45])
            syn = extract_synopsis(tree, alpha=alpha, partition_id=1, version=1)
            assert len(syn.counts) == rows
            before = [getattr(syn, name).tobytes() for name in fields]

            def assert_unshared():
                for name in fields:
                    for col in (tree._count, tree._ls, tree._ss, tree._cent):
                        assert not np.shares_memory(getattr(syn, name), col), (alpha, name)

            assert_unshared()
            capacity = len(tree._count)
            for i in range(3):  # absorbs into every dominant entry
                for _ in range(10):
                    tree.insert(np.array([i * 100.0]))
            i = 3
            while len(tree._count) == capacity:  # new entries until the table is regrown
                tree.insert(np.array([i * 100.0]))
                i += 1
            assert [getattr(syn, name).tobytes() for name in fields] == before, alpha
            assert_unshared()

    def test_alpha_validation(self):
        from synalloc import ConfigError

        tree = self._tree_with_clusters([10])
        with pytest.raises(ConfigError):
            extract_synopsis(tree, alpha=0, partition_id=1, version=1)
        with pytest.raises(ConfigError):
            tree.dominant_entries(0)  # at 0, new entries (count 1) would never join

    def test_bad_alpha_is_reported_before_an_empty_tree(self):
        from synalloc import ConfigError

        with pytest.raises(ConfigError):
            extract_synopsis(CFTree(dimension=2, threshold=1.0), alpha=0, partition_id=1, version=1)
        with pytest.raises(EmptyClusterError):
            extract_synopsis(CFTree(dimension=2, threshold=1.0), alpha=1, partition_id=1, version=1)

    @given(
        st.lists(
            hnp.arrays(np.float64, 2, elements=st.floats(0, 20, allow_nan=False)),
            min_size=1,
            max_size=150,
        ),
        st.floats(0.1, 10.0),
        st.integers(2, 8),
        st.lists(st.integers(1, 10), min_size=1, max_size=4),
        st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan_reference(self, pts, threshold, branching, alphas, every):
        # The stream runs through len(alphas) phases, one alpha each, and
        # extracts every `every` inserts and after the last one.
        tree = CFTree(dimension=2, threshold=threshold, branching_factor=branching)
        for i, row in enumerate(pts):
            tree.insert(row)
            if i % every and i != len(pts) - 1:
                continue
            alpha = alphas[i * len(alphas) // len(pts)]
            syn = extract_synopsis(tree, alpha, partition_id=1, version=i)
            want = naive_synopsis(tree, alpha)
            assert syn.counts.dtype == np.int64
            assert syn.counts.tobytes() == np.array([cf.count for cf in want], dtype=np.int64).tobytes()
            for name, ref in (("linear_sums", [cf.linear_sum for cf in want]),
                              ("square_sums", [cf.square_sum for cf in want]),
                              ("centroids", [cf.centroid() for cf in want])):
                got = getattr(syn, name)
                assert got.shape == (len(want), 2) and got.tobytes() == np.array(ref).tobytes(), name
        assert tree.consistency_issues() == []


class TestDominantRegistry:
    ALPHA = 5

    @staticmethod
    def _points(rng, n):
        """Points in 25 tight clumps on a grid, each clump well inside threshold 1."""
        return rng.integers(0, 5, size=(n, 2)) * 10.0 + rng.uniform(0.0, 0.5, size=(n, 2))

    def _tracked_tree(self, rng):
        """Tracking starts at 100 points; the next 100 push more clumps past alpha."""
        tree = CFTree(dimension=2, threshold=1.0, branching_factor=4)
        for row in self._points(rng, 100):
            tree.insert(row)
        self.tracked_at_start = len(extract_synopsis(tree, self.ALPHA, 1, 1).dominant)
        for row in self._points(rng, 100):
            tree.insert(row)
        return tree

    def _registry_issues(self, tree):
        return [i for i in tree.consistency_issues() if i.startswith("dominant registry")]

    def test_tracks_entries_crossing_alpha(self, rng):
        tree = self._tracked_tree(rng)
        assert tree.consistency_issues() == []
        dominant = tree.dominant_entries(self.ALPHA)
        assert self.tracked_at_start < len(dominant) < len(tree.leaf_entries())

    def test_alpha_one_counts_new_entries(self):
        tree = CFTree(dimension=1, threshold=0.1)
        tree.insert(np.array([0.0]))
        extract_synopsis(tree, 1, partition_id=1, version=1)
        for v in (10.0, 20.0, 0.0):
            tree.insert(np.array([v]))
        assert sorted(tree.dominant_entries(1)) == [0, 1, 2]
        assert tree.consistency_issues() == []

    def test_detects_count_raised_across_alpha(self, rng):
        tree = self._tracked_tree(rng)
        below = next(e for e in tree.leaf_entries() if tree.counts[e] < self.ALPHA)
        tree._count[below] = self.ALPHA
        assert self._registry_issues(tree)

    def test_detects_duplicate_entry(self, rng):
        tree = self._tracked_tree(rng)
        tree._add_dominant(tree._dominant[0])
        assert self._registry_issues(tree)

    def test_detects_extra_entry(self, rng):
        tree = self._tracked_tree(rng)
        tree._add_dominant(next(e for e in tree.leaf_entries() if tree.counts[e] < self.ALPHA))
        assert self._registry_issues(tree)
