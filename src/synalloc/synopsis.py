"""Micro-cluster summaries: cluster features, the CF-tree, and synopsis extraction.

A partition's data is summarised by a height-bounded tree of cluster
features (point count, per-dimension linear sum, per-dimension square sum).
The triplet is closed under addition, so absorbing a point or merging two
clusters is a component-wise sum and never touches raw data. A synopsis is
the set of dominant leaf-level clusters (count >= alpha) with their
centroids; it is the only thing other nodes ever see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyClusterError, VectorError
from .validation import as_vector

# Relative tolerance for float sums when auditing parent/child CF consistency.
CF_SUM_RTOL = 1e-9
# Rows the tree audit checks per numpy call.
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
        c = self.linear_sum / self.count
        r2 = self.square_sum.sum() / self.count - float(c @ c)
        return float(np.sqrt(max(0.0, r2)))

    def radius2_with(self, x: np.ndarray) -> float:
        """Squared radius this cluster would have after absorbing ``x``, without building it."""
        n = self.count + 1
        ls = self.linear_sum + x
        return (self.square_sum.sum() + float(x @ x)) / n - float(ls @ ls) / (n * n)

    @staticmethod
    def centroids_of(cfs: list[ClusterFeature]) -> np.ndarray:
        """Centroid of each non-empty CF, one row per CF."""
        cnt = np.array([cf.count for cf in cfs], dtype=np.float64)
        return np.array([cf.linear_sum for cf in cfs]) / cnt[:, None]

    def variance(self) -> np.ndarray:
        """Per-dimension population variance, clamped at 0 against round-off."""
        if self.count < 1:
            raise EmptyClusterError("variance of an empty cluster")
        c = self.linear_sum / self.count
        return np.maximum(0.0, self.square_sum / self.count - c * c)

    def copy(self) -> "ClusterFeature":
        return ClusterFeature(self.count, self.linear_sum.copy(), self.square_sum.copy())

    def _absorb(self, x: np.ndarray) -> None:
        # In-place equivalent of merge(from_point(x)); hot path of tree inserts.
        self.count += 1
        self.linear_sum += x
        self.square_sum += x * x


@dataclass
class CFEntry:
    """One slot in a tree node: a CF plus the child it summarises (leaves: None)."""

    cf: ClusterFeature
    child: "CFNode | None" = None
    seq: int = -1  # creation ordinal for leaf entries; ties in dominance sort


def _sum_cfs(entries: list[CFEntry]) -> ClusterFeature:
    """Sum of the entries' CFs, merged in list order into a copy of the first."""
    cf = entries[0].cf.copy()
    for e in entries[1:]:
        cf = cf.merge(e.cf)
    return cf


@dataclass
class CFNode:
    """A tree node. ``cents[i]`` caches the centroid of ``entries[i]`` and is kept current
    in place, with the division ``ClusterFeature.centroids_of`` does, so descent and
    splits read the same centroids a rebuild would give, bit for bit.
    """

    is_leaf: bool
    entries: list[CFEntry]
    cents: np.ndarray  # shape (len(entries), M)


@dataclass
class Synopsis:
    """What a partition publishes: its dominant CFs and their centroids."""

    partition_id: int
    dominant: list[ClusterFeature]
    centroids: np.ndarray  # shape (len(dominant), M)
    version: int


class CFTree:
    """Incremental CF-tree with bounded branching and a leaf radius threshold.

    Descent picks the child with the nearest centroid (Euclidean, ties to
    the lowest entry index). A leaf entry absorbs a point only if its radius
    stays within ``threshold``; otherwise the point opens a new entry.
    Overfull nodes split by farthest-pair seeding. Single writer only.
    """

    def __init__(self, dimension: int, threshold: float, branching_factor: int = 8):
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if not threshold > 0:
            raise ConfigError("leaf threshold must be positive")
        if branching_factor < 2:
            raise ConfigError("branching factor must be >= 2")
        self.dimension = dimension
        self.threshold = float(threshold)
        self.branching_factor = branching_factor
        self.root = CFNode(True, [], np.empty((0, dimension)))
        self.total_points = 0
        self._leaf_entries: list[CFEntry] = []  # creation order, never removed
        # Leaf entries with count >= _dominant_alpha, in no particular order.
        # Counts only grow, so each entry joins once, when it reaches alpha.
        self._dominant: list[CFEntry] = []
        self._dominant_alpha: int | None = None  # None: not tracked yet

    # -- insertion ---------------------------------------------------------

    def insert(self, x) -> tuple[CFEntry, bool]:
        """Route ``x`` to its leaf entry; returns (entry, newly_created)."""
        v = as_vector(x, self.dimension, nonneg=True)
        split, entry = self._insert(self.root, v)
        if split is not None:
            self.root = CFNode(False, list(split), ClusterFeature.centroids_of([e.cf for e in split]))
        self.total_points += 1
        if entry.cf.count == self._dominant_alpha:
            self._dominant.append(entry)
        return entry, entry.cf.count == 1  # new entries start at 1; an absorb leaves >= 2

    def _insert(self, node: CFNode, x: np.ndarray):
        if node.is_leaf:
            return self._insert_leaf(node, x)

        i = self._nearest(node.cents, x)
        slot = node.entries[i]
        split, entry = self._insert(slot.child, x)
        if split is None:
            slot.cf._absorb(x)
            node.cents[i] = slot.cf.linear_sum / slot.cf.count
        else:
            node.entries[i : i + 1] = split
            halves = ClusterFeature.centroids_of([e.cf for e in split])
            node.cents = np.concatenate((node.cents[:i], halves, node.cents[i + 1 :]))
            if len(node.entries) > self.branching_factor:
                return self._split(node), entry
        return None, entry

    def _insert_leaf(self, node: CFNode, x: np.ndarray):
        if node.entries:
            i = self._nearest(node.cents, x)
            e = node.entries[i]
            if e.cf.radius2_with(x) <= self.threshold * self.threshold:
                e.cf._absorb(x)
                node.cents[i] = e.cf.linear_sum / e.cf.count
                return None, e
        e = self._new_entry(x)
        node.entries.append(e)
        node.cents = np.concatenate((node.cents, x[None, :]))  # a singleton's centroid is x
        if len(node.entries) > self.branching_factor:
            return self._split(node), e
        return None, e

    def _new_entry(self, x: np.ndarray) -> CFEntry:
        # x was validated by insert; from_point would validate it again.
        e = CFEntry(ClusterFeature(1, x.copy(), x * x), seq=len(self._leaf_entries))
        self._leaf_entries.append(e)
        return e

    @staticmethod
    def _nearest(cents: np.ndarray, x: np.ndarray) -> int:
        d2 = np.square(cents - x).sum(axis=1)
        return int(np.argmin(d2))  # argmin takes the first minimum: lowest index

    def _split(self, node: CFNode) -> tuple[CFEntry, CFEntry]:
        """Farthest-pair seeding: the two most distant centroids seed the halves."""
        cents = node.cents
        diff = cents[:, None, :] - cents[None, :, :]
        d2 = np.square(diff).sum(axis=2)
        if d2.max() == 0.0:
            a, b = 0, 1  # all centroids coincide; degenerate but deterministic
        else:
            a, b = np.unravel_index(int(np.argmax(d2)), d2.shape)  # first max: a < b
        ga: list[int] = []
        gb: list[int] = []
        for k in range(len(node.entries)):
            if k == a:
                ga.append(k)
            elif k == b:
                gb.append(k)
            elif d2[k, a] <= d2[k, b]:  # tie goes to the lower-index seed
                ga.append(k)
            else:
                gb.append(k)
        return self._group_entry(node, ga), self._group_entry(node, gb)

    @staticmethod
    def _group_entry(node: CFNode, rows: list[int]) -> CFEntry:
        """A new node over ``node``'s entries at ``rows``, with their cached centroids."""
        group = [node.entries[k] for k in rows]
        return CFEntry(_sum_cfs(group), child=CFNode(node.is_leaf, group, node.cents[rows]))

    # -- read side ---------------------------------------------------------

    def leaf_entries(self) -> list[CFEntry]:
        """Live leaf entries in creation order."""
        return list(self._leaf_entries)

    def dominant_entries(self, alpha: int) -> list[CFEntry]:
        """Leaf entries with count >= ``alpha``, in no particular order.

        The first call for an ``alpha`` (or the first after a call with a
        different one) scans every leaf; later calls cost O(dominant),
        because ``insert`` keeps the set current from then on.
        """
        if alpha < 1:
            raise ConfigError("alpha must be >= 1")
        if alpha != self._dominant_alpha:
            self._dominant = [e for e in self._leaf_entries if e.cf.count >= alpha]
            self._dominant_alpha = alpha
        return list(self._dominant)

    def root_cf(self) -> ClusterFeature:
        """Aggregate CF of the whole tree."""
        if not self.root.entries:
            raise EmptyClusterError("empty tree has no aggregate CF")
        return _sum_cfs(self.root.entries)

    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            h += 1
            node = node.entries[0].child
        return h

    def consistency_issues(self) -> list[str]:
        """Full-tree audit; returns human-readable violations (empty = healthy)."""
        issues: list[str] = []
        seen: list[CFEntry] = []
        # Row-wise checks run on batches of rows: a numpy call per row is slow,
        # and one call over the whole tree holds every row's copy at once.
        inner: list[tuple[str, ClusterFeature, ClusterFeature]] = []  # (path, CF, child sum)
        cached: list[tuple[str, np.ndarray]] = []  # (path, cents) of non-empty nodes
        cached_cfs: list[ClusterFeature] = []  # their entries' CFs, row for row

        def check_batch() -> None:
            if inner:
                for name in ("linear_sum", "square_sum"):
                    got = np.array([getattr(cf, name) for _, cf, _ in inner])
                    child = np.array([getattr(agg, name) for _, _, agg in inner])
                    # np.allclose, row by row
                    close = np.isclose(got, child, rtol=CF_SUM_RTOL, atol=1e-12).all(axis=1)
                    for k in np.flatnonzero(~close):
                        issues.append(f"{inner[k][0]}: {name} differs from child sum")
            if cached:
                fresh = np.concatenate([c for _, c in cached]) == ClusterFeature.centroids_of(cached_cfs)
                node_of_row = np.repeat(np.arange(len(cached)), [len(c) for _, c in cached])
                for k in dict.fromkeys(node_of_row[~fresh.all(axis=1)].tolist()):  # once per node
                    issues.append(f"{cached[k][0]}: stale centroid cache")
            inner.clear()
            cached.clear()
            cached_cfs.clear()

        def walk(node: CFNode, path: str) -> None:
            if len(node.entries) > self.branching_factor:
                issues.append(f"{path}: {len(node.entries)} entries > B")
            if node.cents.shape != (len(node.entries), self.dimension):
                issues.append(f"{path}: stale centroid cache")
            elif node.entries:
                cached.append((path, node.cents))
                cached_cfs.extend(e.cf for e in node.entries)
            for i, e in enumerate(node.entries):
                if node.is_leaf:
                    seen.append(e)
                    if e.cf.count >= 2 and e.cf.radius() > self.threshold + 1e-9:
                        issues.append(f"{path}[{i}]: radius {e.cf.radius():.6g} > T")
                    continue
                agg = _sum_cfs(e.child.entries)
                if agg.count != e.cf.count:
                    issues.append(f"{path}[{i}]: count {e.cf.count} != child sum {agg.count}")
                inner.append((f"{path}[{i}]", e.cf, agg))
                walk(e.child, f"{path}[{i}]")
            if len(cached_cfs) + len(inner) >= AUDIT_BATCH_ROWS:
                check_batch()

        walk(self.root, "root")
        check_batch()
        mass = sum(e.cf.count for e in seen)
        if mass != self.total_points:
            issues.append(f"mass {mass} != inserted {self.total_points}")
        if set(map(id, seen)) != set(map(id, self._leaf_entries)):
            issues.append("leaf registry out of sync with tree")
        if self._dominant_alpha is not None:
            want = {id(e) for e in seen if e.cf.count >= self._dominant_alpha}
            have = [id(e) for e in self._dominant]
            if len(have) != len(want) or set(have) != want:  # missing, extra or duplicated
                issues.append(
                    f"dominant registry out of sync with leaf counts at alpha {self._dominant_alpha}"
                )
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
    one costs O(dominant log dominant), not O(leaves); the first call for an
    alpha scans every leaf once.
    """
    dom = tree.dominant_entries(alpha)  # checks alpha, ahead of the emptiness check
    if tree.total_points == 0:
        raise EmptyClusterError("cannot extract a synopsis from an empty tree")
    dom.sort(key=lambda e: (-e.cf.count, e.seq))
    cfs = [e.cf.copy() for e in dom] if dom else [tree.root_cf()]
    centroids = np.array([cf.centroid() for cf in cfs])
    return Synopsis(partition_id, cfs, centroids, version)
