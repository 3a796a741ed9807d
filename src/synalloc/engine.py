"""Routing engine: scores a vector against every partition and places it.

Each partition keeps a CF-tree plus the synopsis last extracted from it.
Allocation reads only the synopses (never raw data or live trees): their
centroids are stacked into one ``RoutingMatrix``, kept current as synopses
are published, and every partition is scored in one pass over it. The chosen
partition then absorbs the vector and, every ``refresh_interval`` inserts,
re-extracts and "disseminates" its synopsis under the next version (not
transmitted; all peers live in-process), so the versions count the messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, VectorError
from .similarity import (
    DEFAULT_OUTLIER_K,
    DEFAULT_THETA,
    RoutingMatrix,
    SegmentScores,
    _check_weight_params,
    ensemble_similarity,  # unused here; bench/spans.py patches synalloc.engine.ensemble_similarity
    score_segments,
)
from .synopsis import NEGATIVE_CENTROID, CFTree, Synopsis, _check_tree_params, extract_synopsis
from .validation import as_vector, check_int

# Data-scaled leaf threshold: this fraction of the RMS per-dimension std of
# a partition's initial data, when no explicit threshold is configured.
THRESHOLD_STD_FACTOR = 0.5
# It is floored at this fraction of the largest component: square sums resolve a radius only to
# ~1.5e-8 (sqrt of float64's eps) of the magnitude, and identical rows (std 0) need a threshold above that.
THRESHOLD_FLOOR_FACTOR = 1e-6

# How json.dumps writes the floats that repr cannot: Python's JavaScript-style names.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(s: float) -> str:
    """``s`` at 12 significant digits, written as ``json.dumps(float(f"{s:.12g}"))`` writes it.

    json writes a float as its ``repr``. A ``.12g`` text with a ``.`` and no
    ``e`` already is that repr: no other decimal of at most 15 significant
    digits reads back as the same double, so repr's shortest round-trip text
    has these digits, and both formats print fixed-point over these exponents.
    Every other text goes through ``repr``: ``0``, ``-0`` and ``1`` lack the
    ``.0``, an exponent form need not be repr's (``1e+12`` is
    ``1000000000000.0``), a subnormal holds fewer than 12 digits
    (``4.94065645841e-324`` reads back as ``5e-324``), and json names NaN and
    the infinities.
    """
    text = f"{s:.12g}"
    if "." in text and "e" not in text:
        return text
    return _JSON_NON_FINITE.get(text) or repr(float(text))


@dataclass(frozen=True)
class EngineConfig:
    n_partitions: int = 5
    dimension: int = 5
    alpha: int = 50
    branching_factor: int = 8
    threshold: float | None = None  # None: per-partition data-scaled default
    theta: float = DEFAULT_THETA
    outlier_k: float = DEFAULT_OUTLIER_K
    refresh_interval: int = 1

    def __post_init__(self):
        for name in ("n_partitions", "alpha", "refresh_interval"):
            check_int(getattr(self, name), name, 1)
        _check_tree_params(self.dimension, self.threshold, self.branching_factor)
        _check_weight_params(self.theta, self.outlier_k)


@dataclass
class PartitionState:
    tree: CFTree
    current_synopsis: Synopsis
    initial_count: int = 0


@dataclass
class AllocationRecord:
    """Outcome of routing one vector."""

    t: int
    vector: np.ndarray
    chosen: int  # 1-based partition id
    sims: np.ndarray  # best similarity per partition, in partition order

    def similarities(self) -> list[float]:
        return self.sims.tolist()

    def to_json_line(self) -> str:
        """``{"t":…,"chosen":…,"similarities":[…]}``: compact JSON, byte for byte what
        ``json.dumps`` writes for that dict with each similarity rounded to 12
        significant digits, formatted here with no dict and no encoder (see ``_json_float``)."""
        sims = ",".join(map(_json_float, self.similarities()))
        return f'{{"t":{self.t},"chosen":{self.chosen},"similarities":[{sims}]}}'


@dataclass
class AuditReport:
    checks: dict[str, bool]
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def default_threshold(points: np.ndarray) -> float:
    """Leaf threshold scaled to the data: half the RMS per-dimension std, floored by the magnitude."""
    t = THRESHOLD_STD_FACTOR * float(np.sqrt(points.var(axis=0).mean()))
    return max(t, THRESHOLD_FLOOR_FACTOR * float(points.max()), 1e-12)  # 1e-12: all-zero rows


class AllocationEngine:
    """Single-writer allocator over N in-process partitions."""

    def __init__(self, config: EngineConfig, initial_points: Sequence[np.ndarray]):
        if len(initial_points) != config.n_partitions:
            raise ConfigError(
                f"expected initial data for {config.n_partitions} partitions, "
                f"got {len(initial_points)}"
            )
        self.config = config
        self.partitions: list[PartitionState] = []
        self.rejected = 0
        self._t = 0
        # Every block is checked before any tree is built, and before default_threshold reads it,
        # so that bad data is reported as such: not as a bad threshold, nor after overflowing trees.
        # as_vector sees it in numpy's own dtype, so that complex, text and object blocks fail
        # before any cast; a C-ordered float64 block passes through uncopied. The trees then insert its rows
        # as validated vectors.
        blocks = []
        for i, pts in enumerate(initial_points, start=1):
            try:
                pts = np.atleast_2d(np.asarray(pts))
            except (TypeError, ValueError) as exc:  # a ragged block, say
                raise ConfigError(f"partition {i}: malformed input: {exc}") from None
            if pts.size == 0:
                raise ConfigError(f"partition {i} has no initial data")
            if pts.ndim != 2:
                raise ConfigError(f"partition {i}: initial data must be a 2-D block of rows, got shape {pts.shape}")
            if pts.shape[1] != config.dimension:
                raise ConfigError(
                    f"partition {i}: initial data has dimension {pts.shape[1]}, "
                    f"expected {config.dimension}"
                )
            try:
                blocks.append(as_vector(pts.ravel(), nonneg=True).reshape(pts.shape))
            except VectorError as exc:
                raise ConfigError(f"partition {i}: {exc}") from None
        for i, pts in enumerate(blocks, start=1):
            thr = config.threshold or default_threshold(pts)
            tree = CFTree(config.dimension, thr, config.branching_factor)
            for row in pts:
                tree.insert(row, validated=True)
            syn = extract_synopsis(tree, config.alpha, i, version=1)
            self.partitions.append(PartitionState(tree, syn, initial_count=pts.shape[0]))
        self._matrix = RoutingMatrix([s.centroids for s in self.synopses])

    def _publish(self, pid: int, syn: Synopsis) -> None:
        """Make ``syn`` partition ``pid``'s synopsis and bring the routing matrix up to date:
        its rows are patched in place when their count is unchanged, else the matrix is rebuilt."""
        self.partitions[pid - 1].current_synopsis = syn
        if not self._matrix.patch(pid - 1, syn.centroids):
            self._matrix = RoutingMatrix([s.centroids for s in self.synopses])

    # -- queries -------------------------------------------------------

    @property
    def synopses(self) -> list[Synopsis]:
        return [p.current_synopsis for p in self.partitions]

    @property
    def messages_disseminated(self) -> int:
        """Synopses published since construction: every refresh bumps one version."""
        return sum(s.version - 1 for s in self.synopses)

    def total_points(self) -> int:
        return sum(p.tree.total_points for p in self.partitions)

    def accepted(self) -> int:
        """Vectors ingested so far (initial data excluded)."""
        return self._t

    def allocate(self, x) -> tuple[int, SegmentScores]:
        """Pure argmax-similarity routing decision; does not mutate state.

        Returns the chosen partition id and a read-only sequence with one
        ``EnsembleScore`` per partition, in partition order. The scores are
        built on the first read, not here; a read after later ingests still
        gives the scores as of this call.
        """
        v = as_vector(x, self.config.dimension, nonneg=True)
        return self._allocate(v)

    def _allocate(self, v: np.ndarray) -> tuple[int, SegmentScores]:
        cfg = self.config
        scores = score_segments(v, self._matrix, cfg.theta, cfg.outlier_k)
        sims = scores.similarities
        return int(np.argmax(sims)) + 1, scores  # first max: lowest partition id

    # -- mutation --------------------------------------------------------

    def ingest(self, x) -> AllocationRecord:
        """Route, store, and (on schedule) refresh the target's synopsis.

        The decision always uses synopses as refreshed before this call.
        Invalid vectors are counted and rejected without touching any tree.
        """
        try:
            v = as_vector(x, self.config.dimension, nonneg=True)
        except VectorError:
            self.rejected += 1
            raise
        chosen, scores = self._allocate(v)
        p = self.partitions[chosen - 1]
        p.tree.insert(v, validated=True)
        if (p.tree.total_points - p.initial_count) % self.config.refresh_interval == 0:
            self._publish(chosen, extract_synopsis(
                p.tree, self.config.alpha, chosen, p.current_synopsis.version + 1
            ))
        rec = AllocationRecord(self._t, v, chosen, scores.similarities)
        self._t += 1
        return rec

    def ingest_stream(self, vectors: Iterable) -> Iterator[AllocationRecord]:
        for x in vectors:
            yield self.ingest(x)

    # -- consistency -------------------------------------------------------

    def audit(self) -> AuditReport:
        """Report-only pass over the module invariants.

        Each synopsis checks itself (``Synopsis.consistency_issues``: the alpha rule,
        its columns' shapes, centroid drift and signs), as each tree does. To that,
        synopsis compliance adds what only the engine knows: the refresh schedule (each
        version is 1 plus the refreshes that its partition's inserts have made due) and
        that the synopsis names the partition that publishes it. A negative centroid is
        also outside the router's domain, so it fails weight convexity too.
        The routing matrix is held to a fresh build on the published centroids
        (``RoutingMatrix.differences``), and that build is probed with each
        partition's first centroid and the zero vector (``RoutingMatrix.probe``):
        every row's weights and similarity, the outlier-rule skip and, where the
        engine's matrix is current and sends a probe down the float path, that
        path's similarities. Each fault is reported once per partition whose rows it hits.
        """
        issues: list[str] = []
        cfg = self.config
        numbered = list(enumerate(self.partitions, start=1))

        # Each tree's leaf mass against its inserts is consistency_issues' check, under cf_consistency.
        mass_ok = self.total_points() == sum(p.initial_count for p in self.partitions) + self._t
        if not mass_ok:
            issues.append("total tree mass != initial + accepted ingests")

        cf_ok = True
        for pid, p in numbered:
            for issue in p.tree.consistency_issues():
                cf_ok = False
                issues.append(f"partition {pid}: {issue}")

        alpha_ok = weights_ok = stackable = True
        for pid, p in numbered:
            syn = p.current_synopsis
            due = 1 + (p.tree.total_points - p.initial_count) // cfg.refresh_interval
            found = []
            if syn.version != due:  # a publish skipped, or made off its insert
                found.append(f"synopsis version {syn.version}, the refresh schedule gives {due}")
            if syn.partition_id != pid:
                found.append(f"synopsis names partition {syn.partition_id}")
            found += syn.consistency_issues(cfg.alpha, cfg.dimension)
            alpha_ok &= not found
            issues += [f"partition {pid}: {issue}" for issue in found]
            stackable &= syn.centroids.shape[1:] == (cfg.dimension,) and len(syn.centroids) > 0
            if NEGATIVE_CENTROID in found:  # the router scores centroids unchecked: outside the metrics' domain
                weights_ok = False
                issues.append(f"partition {pid}: domain error: negative synopsis centroid")

        if stackable:  # else there is no matrix to compare or probe; the shape issues stand for both
            fresh = RoutingMatrix([s.centroids for s in self.synopses])
            differences = self._matrix.differences(fresh)
            if differences:
                alpha_ok = False
                issues += differences
            offsets = fresh.offsets
            row_pid = np.repeat(np.arange(1, len(offsets)), np.diff(offsets))
            live = None if differences else self._matrix  # a stale matrix's float path is not scored
            # Each partition's first centroid and the zero vector, which the kernel scores guarded (sum 0).
            probes = [(f" for partition {pid}'s first centroid", fresh.centroids[lo])
                      for pid, lo in enumerate(offsets[:-1].tolist(), start=1)]
            for name, x in probes + [(" for the zero vector", np.zeros(cfg.dimension))]:
                for fault, rows_hit in fresh.probe(x, live, cfg.theta, cfg.outlier_k).items():
                    for pid in dict.fromkeys(row_pid[rows_hit].tolist()):  # once per partition
                        weights_ok = False
                        issues.append(f"partition {pid}: {fault}{name}")

        return AuditReport(
            checks={
                "mass_conservation": mass_ok,
                "cf_consistency": cf_ok,
                "synopsis_alpha_compliance": alpha_ok,
                "weight_convexity": weights_ok,
            },
            issues=issues,
        )
