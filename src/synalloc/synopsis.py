"""Micro-cluster summaries: cluster features, the CF-tree, and synopsis extraction.

A partition's data is summarised by a height-bounded tree of cluster
features (point count, per-dimension linear sum, per-dimension square sum).
The triplet is closed under addition, so absorbing a point or merging two
clusters is a component-wise sum and never touches raw data. A synopsis is
the set of dominant leaf-level clusters (count >= alpha) as row-aligned
arrays of counts, sums and centroids, gathered from the tree's entry table;
it is the only thing other nodes ever see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyClusterError, VectorError
from .validation import as_vector, check_int

# Relative tolerance for float sums when auditing parent/child CF consistency.
CF_SUM_RTOL = 1e-9
# Rows the audit's centroid-cache check compares per numpy call: its temporaries stay this size.
AUDIT_BATCH_ROWS = 1024


@dataclass
class ClusterFeature:
    """Additive summary of a micro-cluster: {count, linear sum, square sum}."""

    count: int
    linear_sum: np.ndarray
    square_sum: np.ndarray

    @classmethod
    def from_point(cls, x) -> "ClusterFeature":
        """Singleton CF: count 1, sums equal to the point and its squares."""
        v = as_vector(x)
        return cls(1, v.copy(), v * v)

    @classmethod
    def empty(cls, dim: int) -> "ClusterFeature":
        return cls(0, np.zeros(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.linear_sum.shape[0]

    def merge(self, other: "ClusterFeature") -> "ClusterFeature":
        """Component-wise sum; commutative and associative."""
        if self.dim != other.dim:
            raise VectorError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        return ClusterFeature(
            self.count + other.count,
            self.linear_sum + other.linear_sum,
            self.square_sum + other.square_sum,
        )

    def centroid(self) -> np.ndarray:
        if self.count < 1:
            raise EmptyClusterError("centroid of an empty cluster")
        return self.linear_sum / self.count

    def radius(self) -> float:
        """RMS distance of absorbed points to the centroid (0 for singletons)."""
        if self.count < 1:
            raise EmptyClusterError("radius of an empty cluster")
        return float(_radii(np.array([self.count]), self.linear_sum[None, :], self.square_sum[None, :])[0])

    def variance(self) -> np.ndarray:
        """Per-dimension population variance, clamped at 0 against round-off."""
        if self.count < 1:
            raise EmptyClusterError("variance of an empty cluster")
        c = self.linear_sum / self.count
        return np.maximum(0.0, self.square_sum / self.count - c * c)


def _radii(counts: np.ndarray, linear_sums: np.ndarray, square_sums: np.ndarray) -> np.ndarray:
    """RMS radius of each row's cluster, sqrt(SS/n - |LS/n|^2), clamped at 0 against round-off."""
    c = linear_sums / counts[:, None]
    return np.sqrt(np.maximum(0.0, square_sums.sum(axis=1) / counts - np.square(c).sum(axis=1)))


def _check_tree_params(dimension: int, threshold: float | None, branching_factor: int) -> None:
    """Domain of a CF-tree: integers dimension >= 1 and B >= 2, threshold > 0 (None: chosen later, from data)."""
    check_int(dimension, "dimension", 1)
    if threshold is not None and not threshold > 0:  # written so that NaN fails too
        raise ConfigError("threshold must be positive")
    check_int(branching_factor, "branching_factor", 2)


@dataclass
class Synopsis:
    """What a partition publishes: its dominant CFs as row-aligned arrays.

    Row ``i`` of ``counts``, ``linear_sums``, ``square_sums`` and ``centroids``
    is one dominant cluster. Rows run in descending count, ties by entry id
    (creation order). When no cluster reaches alpha there is one row, the
    whole tree's aggregate CF. The arrays are copies, never views into the
    tree, so later inserts leave a published synopsis as it was.

    ``dominant`` gives the rows as ``ClusterFeature``s; the square sums are
    kept so that it returns whole CFs. Routing and the audit read only the
    counts, linear sums and centroids.
    """

    partition_id: int
    counts: np.ndarray  # (rows,) int64
    linear_sums: np.ndarray  # (rows, M)
    square_sums: np.ndarray  # (rows, M)
    centroids: np.ndarray  # (rows, M): linear_sums / counts
    version: int

    @property
    def dominant(self) -> list[ClusterFeature]:
        """The rows as ``ClusterFeature``s, built anew on each read."""
        return [ClusterFeature(n, ls, ss) for n, ls, ss in
                zip(self.counts.tolist(), self.linear_sums.copy(), self.square_sums.copy())]


class CFTree:
    """Incremental CF-tree with bounded branching and a leaf radius threshold.

    Descent picks the child with the nearest centroid (Euclidean, ties to
    the lowest entry index). A leaf entry absorbs a point only if its radius
    stays within ``threshold``; otherwise the point opens a new entry.
    Overfull nodes split by farthest-pair seeding. Single writer only.
    ``insert`` validates each point unless its caller vouches for it with
    ``validated=True``, as the engine does for vectors it has checked.

    The tree is one entry table plus an array of entry ids per node. Row ``e``
    holds entry ``e``'s count, sums, centroid (kept equal to ``linear_sum / count``)
    and child node (-1: a leaf entry). Ids are never freed and ascend in creation order.
    The centroid column could be derived, but descent reads a node's centroids at every
    level: dividing there instead made a default-config ingest 4-5 % slower (paired
    benchmark runs, 2-vCPU host), so the column can go only when the table stores the mean.
    """

    def __init__(self, dimension: int, threshold: float, branching_factor: int = 8):
        _check_tree_params(dimension, threshold, branching_factor)
        if threshold is None:  # the shared check lets None through: EngineConfig scales it to the data
            raise ConfigError("threshold must be positive, got None")
        self.dimension = dimension
        self.threshold = float(threshold)
        self.branching_factor = branching_factor
        self.total_points = 0
        self._n = 0  # rows in use; the arrays below are grown by doubling
        self._count = np.zeros(0, dtype=np.int64)
        self._ls = np.zeros((0, dimension))
        self._ss = np.zeros((0, dimension))
        self._cent = np.zeros((0, dimension))
        self._child = np.zeros(0, dtype=np.intp)
        self._nodes: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]  # entry ids per node
        self._root = 0
        # Leaf entry ids with count >= _dominant_alpha, in no particular order: the first
        # _n_dominant of _dominant, grown by doubling. Counts only grow, so each entry
        # joins once, when it reaches alpha.
        self._dominant = np.zeros(0, dtype=np.intp)
        self._n_dominant = 0
        self._dominant_alpha: int | None = None  # None: not tracked yet

    # -- insertion ---------------------------------------------------------

    def insert(self, x, *, validated: bool = False) -> tuple[int, bool]:
        """Route ``x`` to its leaf entry; returns (entry id, newly_created).

        ``validated=True`` skips the input check: the caller guarantees that ``x``
        is what ``as_vector(x, dimension, nonneg=True)`` returns, a 1-D float64
        array of ``dimension`` finite non-negative components. The engine passes
        it for vectors it has checked; anything else must leave it False.
        """
        v = x if validated else as_vector(x, self.dimension, nonneg=True)
        cent, child = self._cent, self._child  # descent only reads; a new row may regrow them
        path = []  # (node, position, entry id) of each inner entry on the way down
        node = self._root
        while len(ids := self._nodes[node]):
            d2 = cent.take(ids, axis=0)  # squared distance to each centroid, in place
            d2 -= v
            np.square(d2, out=d2)
            i = int(np.add.reduce(d2, axis=1).argmin())  # argmin takes the first minimum: lowest index
            e = ids.item(i)
            if (c := child.item(e)) < 0:
                break
            path.append((node, i, e))
            node = c

        vv = v * v
        absorbs = False
        if len(ids):  # the squared radius entry e would have after absorbing v, off its table row
            n = self._count.item(e) + 1
            ls = self._ls[e] + v
            r2 = (np.add.reduce(self._ss[e]) + float(v @ v)) / n - float(ls @ ls) / (n * n)
            absorbs = r2 <= self.threshold * self.threshold
        if absorbs:
            leaf = e
            path.append((node, i, e))  # absorbs like the entries above it
        else:
            leaf = self._add_row(1, v, vv, v, -1)  # v / 1 == v: a singleton's centroid is the point
            grown = np.empty(len(ids) + 1, dtype=np.intp)
            grown[:-1] = ids
            grown[-1] = leaf
            self._nodes[node] = ids = grown
            # Back up while nodes overfill: re-sum the parent entry, add one after it for the new node.
            while len(ids) > self.branching_factor:
                split = self._split(node, ids)
                if not path:  # the root split: a new root over its two halves
                    halves = [self._add_row(*self._fold_row(self._nodes[k]), k) for k in (node, split)]
                    self._nodes.append(np.array(halves, dtype=np.intp))
                    self._root = len(self._nodes) - 1
                    break
                node, i, e = path.pop()
                self._set_row(e, *self._fold_row(self._nodes[self._child.item(e)]))
                half = self._add_row(*self._fold_row(self._nodes[split]), split)
                ids = self._nodes[node]
                self._nodes[node] = ids = np.concatenate((ids[: i + 1], [half], ids[i + 1 :]))
        for _, _, e in path:  # in place, what merging ClusterFeature.from_point(v) would give
            n = self._count.item(e) + 1
            self._count[e] = n
            ls = self._ls[e]
            ls += v
            ss = self._ss[e]
            ss += vv
            np.divide(ls, n, out=self._cent[e])

        self.total_points += 1
        if self._count.item(leaf) == self._dominant_alpha:
            self._add_dominant(leaf)
        return leaf, not absorbs

    def _add_row(self, count: int, linear_sum: np.ndarray, square_sum: np.ndarray, centroid: np.ndarray,
                 child: int) -> int:
        e = self._n
        if e == len(self._count):
            cap = max(8, 2 * e)
            for name in ("_count", "_ls", "_ss", "_cent", "_child"):
                old = getattr(self, name)
                grown = np.empty((cap, *old.shape[1:]), dtype=old.dtype)
                grown[:e] = old
                setattr(self, name, grown)
        self._n = e + 1
        self._child[e] = child
        self._set_row(e, count, linear_sum, square_sum, centroid)
        return e

    def _add_dominant(self, e: int) -> None:
        n = self._n_dominant
        if n == len(self._dominant):
            self._dominant = np.resize(self._dominant, max(8, 2 * n))
        self._dominant[n] = e
        self._n_dominant = n + 1

    def _set_row(self, e: int, count: int, linear_sum: np.ndarray, square_sum: np.ndarray,
                 centroid: np.ndarray) -> None:
        self._count[e] = count
        self._ls[e] = linear_sum
        self._ss[e] = square_sum
        self._cent[e] = centroid

    def _fold(self, ids: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Count and sums of rows ``ids``, added in order as a fold of ``ClusterFeature.merge``."""
        # accumulate adds row after row (it is cumsum without the method's wrapper); add.reduce,
        # which sum(axis=0) calls, would add pairwise at dimension 1. Integer counts add exactly.
        return (sum(self._count[ids].tolist()), np.add.accumulate(self._ls.take(ids, axis=0))[-1],
                np.add.accumulate(self._ss.take(ids, axis=0))[-1])

    def _fold_row(self, ids: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The table row of an entry over rows ``ids``: their ``_fold`` and its centroid."""
        n, ls, ss = self._fold(ids)
        return n, ls, ss, ls / n

    def _split(self, node: int, ids: np.ndarray) -> int:
        """Split overfull ``node``, whose entries are ``ids``, by farthest-pair seeding; returns the new node.

        ``node`` keeps the first seed's group and the new node takes the other.
        """
        cents = self._cent.take(ids, axis=0)
        d2 = np.add.reduce(np.square(cents[:, None, :] - cents[None, :, :]), axis=2)
        k = int(d2.argmax())  # the first maximum: a < b, as d2 is symmetric with a zero diagonal
        a, b = divmod(k, len(ids)) if d2.item(k) != 0.0 else (0, 1)  # all coincide: degenerate, deterministic
        to_b = d2[:, a] > d2[:, b]  # a tie goes to the lower-index seed
        to_b[a], to_b[b] = False, True
        self._nodes[node] = ids[~to_b]
        self._nodes.append(ids[to_b])
        return len(self._nodes) - 1

    # -- read side ---------------------------------------------------------

    @property
    def counts(self) -> np.ndarray:
        """Point count of every entry, indexed by entry id (a view into the table)."""
        return self._count[: self._n]

    def leaf_entries(self) -> np.ndarray:
        """Ids of the leaf entries, in creation order."""
        return np.flatnonzero(self._child[: self._n] < 0)

    def entry_cf(self, e: int) -> ClusterFeature:
        """A copy of entry ``e``'s cluster feature."""
        return ClusterFeature(int(self._count[e]), self._ls[e].copy(), self._ss[e].copy())

    def dominant_entries(self, alpha: int) -> np.ndarray:
        """Ids of the leaf entries with count >= ``alpha``, in no particular order (a copy).

        The first call for an ``alpha`` (or the first after a call with a
        different one) scans every leaf; later calls cost O(dominant),
        because ``insert`` keeps the set current from then on.
        """
        check_int(alpha, "alpha", 1)
        if alpha != self._dominant_alpha:
            self._dominant = np.flatnonzero((self._child[: self._n] < 0) & (self.counts >= alpha))
            self._n_dominant = len(self._dominant)
            self._dominant_alpha = alpha
        return self._dominant[: self._n_dominant].copy()

    def root_cf(self) -> ClusterFeature:
        """Aggregate CF of the whole tree."""
        if self.total_points == 0:
            raise EmptyClusterError("empty tree has no aggregate CF")
        return ClusterFeature(*self._fold(self._nodes[self._root]))

    def height(self) -> int:
        return self._height(self._nodes)

    def _height(self, nodes: list[np.ndarray]) -> int:
        """Levels down the first entries; at most ``len(nodes)``, so a cyclic pointer ends it too."""
        node = self._root
        for h in range(1, len(nodes)):
            ids = nodes[node]
            if not len(ids) or not 0 <= (node := int(self._child[ids[0]])) < len(nodes):
                return h
        return len(nodes)

    def consistency_issues(self) -> list[str]:
        """Full-tree audit; returns human-readable violations (empty = healthy).

        The walk goes down a level at a time, in a few array passes per level. The level's first
        pointer to a node reaches it and every other pointer is cut. Paths are built only for issues.
        """
        issues: list[str] = []
        count, child = self.counts, self._child[: self._n]
        leaf = child < 0
        nodes = self._nodes  # what the audit reads: ids outside the table dropped, and reported below
        off_table: dict[int, list[int]] = {}
        listed_ids = np.concatenate(nodes)
        if ((listed_ids < 0) | (listed_ids >= self._n)).any():
            nodes = list(nodes)
            for k, ids in enumerate(self._nodes):
                if (bad := (ids < 0) | (ids >= self._n)).any():
                    off_table[k], nodes[k] = ids[bad].tolist(), ids[~bad]
        if not 0 <= self._root < len(nodes):  # every check below reads the walk from the root
            return [f"root node id {self._root} outside the {len(nodes)} nodes"]
        unreached = np.arange(len(nodes)) != self._root
        level, walk = np.array([self._root]), []
        while level.size:  # breadth first, children in entry order
            ids = np.concatenate([nodes[k] for k in level.tolist()])
            c = child[ids]
            walk.append((level, np.full(len(level), len(walk)), ids, cut := c >= 0))
            new = np.flatnonzero(cut & (c < len(nodes)))
            new = new[unreached[c[new]]]
            new = np.sort(new[np.unique(c[new], return_index=True)[1]])  # the level's first pointer to each node
            cut[new] = False  # the rest point past the node list, or to a node reached before
            level = c[new]
            unreached[level] = False
        order, depths, rows, cut = map(np.concatenate, zip(*walk))  # rows: every entry id, as often as listed
        sizes = np.fromiter(map(len, nodes), np.intp, len(nodes))[order]
        node_of = np.repeat(np.arange(len(order)), sizes)
        first = np.concatenate(([0], np.cumsum(sizes)))  # walk position of each walked node's first entry
        inner = np.flatnonzero(~(leaf[rows] | cut))  # walked node k + 1 hangs from the entry at inner[k]

        def path(k) -> str:  # of walked node k
            return label(inner[k - 1]) if k else "root"

        def label(p) -> str:  # of the entry at walk position p
            return f"{path(node_of[p])}[{p - first[node_of[p]]}]"

        for k in np.flatnonzero(np.isin(order, list(off_table))).tolist():
            issues.append(f"{path(k)}: entry ids {off_table[order[k]]} outside the table of {self._n} rows")
        for k in np.flatnonzero(sizes > self.branching_factor).tolist():
            issues.append(f"{path(k)}: {sizes[k]} entries > B")
        leaf_depth = self._height(nodes) - 1
        at_leaf_depth = depths == leaf_depth
        for k in dict.fromkeys(node_of[leaf[rows] != at_leaf_depth[node_of]].tolist()):  # once per node
            kind = "inner" if at_leaf_depth[k] else "leaf"
            issues.append(f"{path(k)}: {kind} entry at depth {depths[k]} of a height-{leaf_depth + 1} tree")
        for p in np.flatnonzero(cut).tolist():
            c = child[rows[p]]
            fault = f"past the {len(nodes)} nodes" if c >= len(nodes) else "reached twice: a cycle or a shared node"
            issues.append(f"{label(p)}: child node {c} {fault}")

        listed = np.bincount(rows, minlength=self._n)
        if (bad := np.flatnonzero(listed != 1)).size:
            issues.append(f"{bad.size} entries not listed exactly once under the root "
                          f"(entry {bad[0]}: {listed[bad[0]]} times)")
        fresh = np.zeros(self._n, dtype=bool)  # a row the cache table lacks counts as stale
        cached = min(self._n, len(self._cent))
        for lo in range(0, cached, AUDIT_BATCH_ROWS):
            hi = min(lo + AUDIT_BATCH_ROWS, cached)
            fresh[lo:hi] = (self._cent[lo:hi] == self._ls[lo:hi] / count[lo:hi, None]).all(axis=1)
        for k in dict.fromkeys(node_of[~fresh[rows]].tolist()):  # once per node
            issues.append(f"{path(k)}: stale centroid cache")

        many = np.flatnonzero(leaf & (count >= 2))  # in table order: the leaf entries whose radius is checked
        r = _radii(count[many], self._ls.take(many, axis=0), self._ss.take(many, axis=0))
        for p in np.flatnonzero(np.isin(rows, many[r > self.threshold + 1e-9])).tolist():  # each listing of one
            issues.append(f"{label(p)}: radius {r[np.searchsorted(many, rows[p])]:.6g} > T")

        def child_sums(col: np.ndarray) -> np.ndarray:  # per inner entry, its child's rows added in order as merge does
            out, full = np.zeros((len(inner), *col.shape[1:]), dtype=col.dtype), sizes[1:] > 0
            out[full] = np.add.reduceat(col.take(rows[first[1]:], axis=0), first[1:-1][full] - first[1])
            return out

        got, want = count[rows[inner]], child_sums(count)
        for k in np.flatnonzero(got != want):
            issues.append(f"{label(inner[k])}: count {got[k]} != child sum {want[k]}")
        for name, col in (("linear_sum", self._ls), ("square_sum", self._ss)):
            # np.allclose, row by row
            close = np.isclose(col.take(rows[inner], axis=0), child_sums(col), rtol=CF_SUM_RTOL, atol=1e-12).all(axis=1)
            for k in inner[~close]:
                issues.append(f"{label(k)}: {name} differs from child sum")

        mass = int(count[leaf] @ listed[leaf])
        if mass != self.total_points:
            issues.append(f"mass {mass} != inserted {self.total_points}")
        if self._dominant_alpha is not None:
            want = np.flatnonzero(leaf & (count >= self._dominant_alpha))
            if not np.array_equal(np.sort(self._dominant[: self._n_dominant]), want):  # missing, extra or duplicated
                issues.append(f"dominant registry out of sync with leaf counts at alpha {self._dominant_alpha}")
        return issues


def extract_synopsis(
    tree: CFTree, alpha: int, partition_id: int, version: int
) -> Synopsis:
    """Dominant leaf clusters (count >= alpha) of a tree, as a Synopsis.

    Entries below alpha are treated as outliers and dropped. Order is
    descending count, ties by creation order. When nothing reaches alpha
    the root aggregate CF stands in, so a synopsis is never empty.

    Cost: the tree tracks the entries at or above the last alpha asked for
    (``CFTree.dominant_entries``), so a call with the same alpha as the last
    one is one sort of the dominant ids and four row gathers, O(dominant log
    dominant) in numpy, not O(leaves); the first call for an alpha scans every
    leaf once. The fallback is one in-order fold of the root node's entries
    and its centroid (``CFTree._fold_row``; the sums are ``root_cf``'s), with
    no ``ClusterFeature`` built on the way.
    """
    dom = tree.dominant_entries(alpha)  # checks alpha, ahead of the emptiness check
    if tree.total_points == 0:
        raise EmptyClusterError("cannot extract a synopsis from an empty tree")
    if len(dom):
        dom = dom[np.lexsort((dom, -tree.counts[dom]))]  # count descending, then id: creation order
        # take copies: an absorb updates the table's rows in place
        rows = [col.take(dom, axis=0) for col in (tree._count, tree._ls, tree._ss, tree._cent)]
    else:
        n, ls, ss, centroid = tree._fold_row(tree._nodes[tree._root])
        rows = [np.array([n], dtype=np.int64), ls[None], ss[None], centroid[None]]
    return Synopsis(partition_id, *rows, version)
