"""Abundance dissimilarity metrics and their fusion into one similarity score.

Three metrics (quantitative Jaccard, Sorensen/Bray-Curtis, Kulczynski) are
evaluated per centroid, weighted by a simple outlier rule, and combined by
a linear opinion pool. All metrics are defined for non-negative vectors and
land in [0, 1]; similarity is one minus the pooled dissimilarity.

The router's kernels (``_dissim_rows`` and ``_pool``) are metric-major: the
outcomes of all centroid rows live in one (3, rows) buffer, and callers see
(rows, 3) ``.T`` views of it. Each row's sums (of its M components, and
of its n = 3 outcomes) are one reduction over another axis, which numpy
adds left to right (with ``_component_sums`` where a single row would not
be), and sum(x) is folded left to right. So every value is bit-identical
to the row-by-row formulas added left to right, at a fraction of the cost.
The kernel reads a ``RoutingMatrix``: the stacked centroid rows in its
memory order, each row's sum, and a flag that lets it divide unguarded.
The outlier rule looks each row's weights up by its outlier count in two
small tables built once per (n, theta), rather than computing them row by
row.

A small matrix costs the kernel ~20 numpy calls whatever its size, so
``score_segments`` scores it in plain Python floats instead
(``_score_floats``), with the kernel's arithmetic in the kernel's order and
so the same bits. It does so only on the kernel's fault-free path, with the
outlier rule skipped, M < 8 and at most ``FLOAT_PATH_ROWS`` rows: Python
floats overflow silently and raise on division by zero, so nothing outside
that domain may reach them. The matrix holds the lists that path reads.

``RoutingMatrix.differences`` and ``RoutingMatrix.probe`` are the matrix's
audit, as ``CFTree.consistency_issues`` is the tree's: the engine picks the
probe vectors and words the issues.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, VectorError
from .synopsis import Synopsis
from .validation import _REAL_KINDS, as_vector


class Metric(str, enum.Enum):
    JACCARD = "jaccard"
    SORENSEN = "sorensen"
    KULCZYNSKI = "kulczynski"


METRICS = (Metric.JACCARD, Metric.SORENSEN, Metric.KULCZYNSKI)

DEFAULT_THETA = 0.1  # weight handed to an outlier metric
DEFAULT_OUTLIER_K = 3.0  # outlier iff it deviates more than k sigma from the mean


@dataclass
class MetricOutcome:
    metric: Metric
    dissimilarity: float


@dataclass(eq=False)
class WeightVector:
    weights: np.ndarray
    theta: float

    def __eq__(self, other):
        # The generated __eq__ compares the arrays with ==, whose truth value raises.
        if not isinstance(other, WeightVector):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights)) and self.theta == other.theta


@dataclass
class EnsembleScore:
    """Fused verdict for one (vector, synopsis) pair."""

    pooled_dissimilarity: float
    similarity: float
    per_metric: list[MetricOutcome]
    weights: WeightVector


def _check_weight_params(theta: float, k: float, n: int = len(METRICS)) -> None:
    """Domain of the weight rule over ``n`` outcomes: 0 < theta < 1/n and k > 0."""
    if not 0.0 < theta < 1.0 / n:
        raise ConfigError(f"theta must lie in (0, 1/{n})")
    if not k > 0.0:  # written so that NaN fails too
        raise ConfigError("outlier factor k must be positive")


def _outcomes(x, s) -> np.ndarray:
    """Validated (J, S, K) outcomes of one pair: the one-row case of ``_dissim_rows``."""
    xv = as_vector(x, nonneg=True)
    sv = as_vector(s, dim=xv.shape[0], nonneg=True)
    return _dissim_rows(xv, RoutingMatrix([sv[None, :]]))[0]


def jaccard_dissim(x, s) -> float:
    """Share of the combined abundance that the two vectors do not share."""
    return float(_outcomes(x, s)[0])


def sorensen_dissim(x, s) -> float:
    """Manhattan distance normalised by total abundance (Bray-Curtis)."""
    return float(_outcomes(x, s)[1])


def kulczynski_dissim(x, s) -> float:
    """One minus the mean fraction of each vector's abundance that is shared."""
    return float(_outcomes(x, s)[2])


def all_dissims(x, s) -> list[MetricOutcome]:
    """The three metric outcomes in canonical order."""
    return [MetricOutcome(m, v) for m, v in zip(METRICS, _outcomes(x, s).tolist())]


def compute_weights(outcomes, theta: float, k: float = DEFAULT_OUTLIER_K) -> WeightVector:
    """Outlier-aware convex weights over a vector of metric outcomes (``as_vector``).

    A metric is an outlier when its outcome deviates from the outcome mean
    by more than ``k`` population standard deviations. Outliers get the
    small weight ``theta``; the rest share the remainder equally. With all
    outcomes equal (or, degenerately, all flagged) weights are uniform.
    This is the one-column case of ``_pool``, the rule the router applies.
    """
    o = as_vector(outcomes)
    if o.size < 2:
        raise ConfigError("need at least two metric outcomes")
    _check_weight_params(theta, k, o.size)
    w, _ = _pool(o.reshape(-1, 1), theta, k)
    return WeightVector(np.full(o.size, 1.0 / o.size) if w is None else w[:, 0], theta)


def opinion_pool(outcomes, weights: WeightVector) -> float:
    """Convex combination of an outcome vector under the given weights, summed left to right as the router pools."""
    o = as_vector(outcomes)
    if o.size != weights.weights.size:
        raise VectorError("outcome/weight length mismatch")
    # Left to right, as the router pools (``_pool``): numpy sums 8 terms or more pairwise.
    # -0.0 is the exact identity of +, so the first term comes back as itself.
    return functools.reduce(operator.add, (o * weights.weights).tolist(), -0.0)


# Fault-free bound on sum(x) and on every centroid row sum; see ``_dissim_rows``.
SUM_BOUND = 2.0**1020
# Most rows (at M < 8) that ``score_segments`` scores in plain Python floats; both bound only its
# cost. That is mostly per row: at 16 rows it took 0.54-0.86 of the kernel's time for M = 1 to 7, at
# 20 rows up to 0.92 (a sweep on a 2-vCPU host, in CHANGES.md).
FLOAT_PATH_ROWS = 16
_UNGUARDED = contextlib.nullcontext()


def _component_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over axis -2 of ``a``, the M components of each row on axis -1, left to right from +0.0.

    numpy reduces an axis that is not the innermost term by term, but with
    one row it drops the last axis and sums pairwise from 8 terms. There
    ``accumulate`` (left to right at any shape; ~10x the reduce over hundreds
    of rows) takes over, and adding 0.0 gives -0.0s the reduce's +0.0 sum."""
    if a.shape[-1] == 1 and a.shape[-2] > 1:
        return np.add(np.add.accumulate(a, axis=-2)[..., -1, :], 0.0, out=out)
    return np.add.reduce(a, axis=-2, out=out)


def _in_bound(sums: np.ndarray) -> bool:
    """Whether every row sum lies in (0, SUM_BOUND]; NaN fails."""
    return bool(np.minimum.reduce(sums) > 0.0 and np.maximum.reduce(sums) <= SUM_BOUND)


class RoutingMatrix:
    """Centroid rows stacked in segments, held as ``_dissim_rows`` reads them.

    Rows ``offsets[s]`` to ``offsets[s + 1] - 1`` form segment ``s``; in the
    engine, one partition's synopsis. ``centroids`` is Fortran-ordered, so
    that the kernel's (M, rows) ``.T`` view is contiguous. ``sums`` holds
    each row's sum as the kernel would take it, and ``bounded`` says whether
    every row sum lies in (0, SUM_BOUND], NaN failing. ``offsets`` is never
    written: earlier ``SegmentScores`` read it. The blocks are stacked as
    float64, so that integer rows are summed as floats and cannot wrap.
    ``floats`` holds the rows and their sums as Python lists for
    ``score_segments``' float path, when M < 8 and there are at most
    ``FLOAT_PATH_ROWS`` rows; otherwise it is None.
    """

    __slots__ = ("centroids", "offsets", "sums", "bounded", "floats")

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.centroids = np.asfortranarray(np.concatenate(blocks), dtype=np.float64)
        self.offsets = np.array([0, *itertools.accumulate(map(len, blocks))])
        self.sums = _component_sums(self.centroids.T)
        self.bounded = _in_bound(self.sums)
        rows, m = self.centroids.shape
        self.floats = (self.centroids.tolist(), self.sums.tolist()) if m < 8 and rows <= FLOAT_PATH_ROWS else None

    def patch(self, s: int, rows: np.ndarray) -> bool:
        """Write ``rows`` over segment ``s`` in place, with their sums and the flag.

        Only when the row count is unchanged; otherwise nothing changes, and
        False tells the caller to build a new matrix. The whole matrix is
        re-summed in place as a build sums it: one reduce, left to right from
        two rows on, where a one-row segment would need ``accumulate``; at
        the engine's sizes it costs about one segment's sum. The flag is
        re-derived from the patched sums, usually one, checked in Python as
        two ufunc reductions cost more; every row is scanned only when it
        was down, as a row outside the bound may be the one replaced.
        ``floats`` gets new lists, not writes into its old ones.
        """
        lo, hi = self.offsets[s:s + 2].tolist()
        if hi - lo != len(rows):
            return False
        block = self.centroids[lo:hi]
        block[...] = rows
        patched = _component_sums(self.centroids.T, out=self.sums)[lo:hi].tolist()
        self.bounded = (all(0.0 < v <= SUM_BOUND for v in patched)  # _in_bound; NaN fails
                        and (self.bounded or _in_bound(self.sums)))
        if self.floats is not None:
            old_rows, old_sums = self.floats
            self.floats = old_rows[:lo] + block.tolist() + old_rows[hi:], old_sums[:lo] + patched + old_sums[hi:]
        return True

    def differences(self, fresh: RoutingMatrix) -> list[str]:
        """How this matrix differs from ``fresh``, a new build on the blocks it should hold.

        Its rows and offsets, its row sums and its fault-free flag are each
        compared with the fresh build's, one issue for each that differs.
        """
        issues = []
        if not (np.array_equal(self.centroids, fresh.centroids) and np.array_equal(self.offsets, fresh.offsets)):
            issues.append("routing matrix differs from the published centroids")
        if not np.array_equal(self.sums, fresh.sums):
            issues.append("routing matrix row sums differ from the published centroids")
        if self.bounded != fresh.bounded:
            issues.append(f"routing matrix fault-free flag is {self.bounded}, "
                          f"the published row sums give {fresh.bounded}")
        return issues

    def probe(self, x: np.ndarray, live: RoutingMatrix | None, theta: float, k: float) -> dict[str, np.ndarray]:
        """Each fault of the router's scores for ``x``, as a mask over the rows of this fresh build.

        The kernel scores ``x`` against every row: weights must be convex and
        similarities in [0, 1]. Where it skipped the outlier rule, the rule
        runs on the same outcomes, its weights are checked, and its pooled
        values must equal the kernel's bit for bit (NaN equal to NaN). Where
        ``score_segments``' own tests (``_takes_float_path``, ``_score_floats``)
        send ``x`` down the float path over ``live``, the matrix the router
        reads, each segment's similarity must equal the kernel's bit for bit,
        or all its rows fail. Pass None for a ``live`` that ``differences`` faults.
        """
        scores = _score_kernel(x, self, theta, k)
        w, pooled = scores.rule_weights, scores.pooled
        skip_differs = np.zeros(len(pooled), dtype=bool)
        if w is None:  # the kernel skipped the rule: run it, and hold the skip to it
            rule_w, rule_pooled = _outlier_rule(scores.dissims.T, theta, k)
            w = rule_w.T
            skip_differs = ((rule_pooled.view(np.int64) != pooled.view(np.int64))
                            & ~(np.isnan(rule_pooled) & np.isnan(pooled)))
        float_differs = np.zeros(len(pooled), dtype=bool)
        routed = _score_floats(x, live, theta, k) if live is not None and _takes_float_path(live, k) else None
        if routed is not None:
            differs = routed.similarities.view(np.int64) != scores.similarities.view(np.int64)
            float_differs = np.repeat(differs, np.diff(self.offsets))
        sims = 1.0 - pooled
        return {
            "non-convex weights": (w < 0).any(axis=1) | (w > 1).any(axis=1) | (np.abs(w.sum(axis=1) - 1.0) > 1e-12),
            "similarity out of range": ~((sims >= 0.0) & (sims <= 1.0)),
            "outlier-rule skip pools differently from the rule": skip_differs,
            "float-path similarity differs from the kernel's": float_differs,
        }


def _dissim_rows(x: np.ndarray, matrix: RoutingMatrix) -> np.ndarray:
    """Metric outcomes for ``x`` against every row of ``matrix``; shape (rows, 3).

    With ``a`` the summed absolute difference, ``t`` the total abundance and
    ``m`` the summed shared minimum: J = 2a / (t + a), S = a / t and
    K = 1 - (m / sum(x) + m / sum(c)) / 2. Two all-zero vectors count as
    identical (0), one all-zero vector against any other as disjoint (1).
    Round-off outside [0, 1] is clipped.

    Metric-major: J, S and K go into one (3, rows) buffer, returned as its
    (rows, 3) ``.T`` view. The sums of |c - x| and min(c, x) over the M
    components are one reduction over the middle axis of a (2, M, rows)
    scratch block, left to right (``_component_sums``), as the matrix's row
    sums and sum(x) are. The block is read through the (M, rows) ``.T``
    view of the matrix's Fortran-ordered rows. K is computed in its output
    row, with no temporary. The row sums are the matrix's own, and its flag
    decides, with sum(x), whether the divisions are guarded.
    """
    centroids, sums = matrix.centroids, matrix.sums
    rows, m = centroids.shape
    sx = functools.reduce(operator.add, x.tolist(), 0.0)  # as the float path adds it
    c, xv, block = centroids.T, x[:, None], np.empty((2, m, rows))
    np.abs(np.subtract(c, xv, out=block[0]), out=block[0])
    np.minimum(c, xv, out=block[1])
    absdiff, smin = _component_sums(block)

    # Fault-free path: when 0 < sum(x) <= 2^1020 and every row sum lies in
    # (0, 2^1020], no step below divides by 0 or reaches inf, so it needs no
    # errstate, and no row needs the zero-sum fix-up. Proof: every term is
    # non-negative, so a sum of M terms, rounded in any order, is within a
    # factor (1 +- u)^M of the exact sum (u = 2^-53), and for any M < 2^40
    # within 1 +- 2^-12. As |c_i - x_i| <= c_i + x_i and min(c_i, x_i) is at
    # most x_i and at most c_i, the computed a <= (1 + 2^-10)(sum(x) + sum(c))
    # < 2^1022 and m <= (1 + 2^-10) min(sum(x), sum(c)). So t <= 2^1021,
    # t + a < 2^1023 and 2a < 2^1023 are finite; the denominators t, t + a,
    # sum(x) and sum(c) are all positive; and every quotient is below 3.
    # Every other call is guarded: a zero or huge x, or a zero or huge row sum.
    guarded = not (matrix.bounded and 0.0 < sx <= SUM_BOUND)
    out = np.empty((3, rows))
    tot = sx + sums
    # Inputs are non-negative, so a zero denominator needs a zero row sum: those rows are set below.
    with np.errstate(divide="ignore", invalid="ignore") if guarded else _UNGUARDED:
        np.divide(2.0 * absdiff, tot + absdiff, out=out[0])
        np.divide(absdiff, tot, out=out[1])
        if sx == 0.0:
            out[2] = 1.0
        else:  # 1 - 0.5 * (m / sum(x) + m / sum(c)), step by step in its output row
            kul = out[2]
            np.divide(smin, sx, out=kul)
            np.add(kul, np.divide(smin, sums, out=smin), out=kul)
            np.subtract(1.0, np.multiply(kul, 0.5, out=kul), out=kul)
    if guarded:
        empty = sums == 0.0
        if empty.any():
            if sx == 0.0:
                out[:, empty] = 0.0
            else:
                out[2, empty] = 1.0
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out).T


def _rule_skipped(n: int, k: float) -> bool:
    """Whether the outlier rule cannot fire over ``n`` outcomes at factor ``k``: k^2 >= 2n (see ``_pool``)."""
    return k * k >= 2 * n


def _pool(t: np.ndarray, theta: float, k: float) -> tuple[np.ndarray | None, np.ndarray]:
    """The weight rule on metric-major outcomes ``t`` of shape (n, rows).

    Returns the (n, rows) weights and each row's pooled value. Where the rule
    cannot fire, every weight is 1 / n and None stands for them: the pooled
    values need no weights array, and ``ingest`` reads only those. Elsewhere
    ``_outlier_rule`` runs.
    """
    n = t.shape[0]
    if _rule_skipped(n, k):
        # The rule cannot fire, so every row gets what an unflagged row gets:
        # (1 - 0 * theta) / n == 1 / n. Each deviation's square is at most n
        # times the computed variance, up to round-off. That round-off is
        # relative for normal floats; for subnormal squares each is off by
        # up to half a unit u. If the variance rounds to j >= 1 units, then
        # z^2 < n(1 + 0.5/j) + 0.5/j <= 1.5n + 0.5 < 2n <= k^2. If it rounds
        # to 0, the row is degenerate and uniform anyway. So the threshold is
        # sqrt(2n), not the exact-arithmetic sqrt(n - 1): the row
        # [9.999995841700118e-156, 1.0000002668839275e-155,
        # 1.0000001489460608e-155] has a computed z of 1.8708.
        return None, np.add.reduce(t * (1.0 / n), axis=0)
    return _outlier_rule(t, theta, k)


@functools.lru_cache(maxsize=32)
def _weight_tables(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights of a flagged and of an unflagged outcome, indexed by a row's outlier count j.

    A flagged outcome weighs ``theta``; the n - j unflagged ones share the
    rest, (1 - j * theta) / (n - j). A row with every outcome flagged
    (j = n) is degenerate and uniform: both tables give it 1 / n.
    """
    j = np.arange(n + 1)
    unflagged = (1.0 - j * theta) / np.maximum(n - j, 1)
    flagged = np.full(n + 1, theta)
    flagged[n] = unflagged[n] = 1.0 / n
    flagged.setflags(write=False)
    unflagged.setflags(write=False)
    return flagged, unflagged


def _outlier_rule(t: np.ndarray, theta: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The rule itself, unskipped: outcomes more than ``k`` stds from their row mean weigh ``theta``.

    Every sum is a reduce over the leading axis, so every value is
    bit-identical to the row-major rule for n < 8 (the router has n = 3)
    and, as numpy sums one row as a vector, for one row, as in
    ``compute_weights``.
    Each outcome's weight is looked up by its row's outlier count in
    ``_weight_tables``, which hold the values the rule's formula gives.
    A row whose std is 0 is uniform: its deviations can still be nonzero,
    and so flagged, when their squares underflow.
    The audit runs it where ``_pool`` skipped it, to check the skip.
    """
    n = t.shape[0]
    # np.mean's and np.std's own steps, with the deviations kept for the test.
    dev = t - np.add.reduce(t, axis=0) / n
    d = np.sqrt(np.add.reduce(np.square(dev), axis=0) / n)
    outlier = np.abs(dev) > k * d
    n_out = np.add.reduce(outlier, axis=0)
    flagged, unflagged = _weight_tables(n, float(theta))  # float: a 0-d array theta is unhashable
    w = np.where(outlier, flagged[n_out], unflagged[n_out])
    if np.count_nonzero(d) < d.size:  # d.all() at half its cost; NaN counts as nonzero
        w[:, d == 0.0] = 1.0 / n
    return w, np.add.reduce(t * w, axis=0)


class SegmentScores(Sequence):
    """Fused scores of one vector against the segments of a ``RoutingMatrix``.

    It is also a read-only sequence of each segment's ``EnsembleScore``:
    ``ensemble_scores`` builds them all on the first item read, and later
    reads return the same objects. Every field holds values made for this
    one call, plus the matrix's ``offsets``, which no matrix ever writes.
    So scores read late are the scores as of the call. The fields keep
    what scoring computed: ``rule_weights`` is None where ``_pool`` skipped
    the rule. The float path keeps no per-row values: it hands over
    ``replay``, the call's x, the matrix's row lists (which ``patch``
    rebinds and never writes into, so they are the rows as of the call)
    and k, and on first read of ``dissims`` or ``pooled`` the kernel
    (``_dissim_rows``, then ``_pool``) scores them once, in its own layout.
    """

    def __init__(self, similarities: np.ndarray, offsets: np.ndarray, theta: float,
                 dissims: np.ndarray | None = None, pooled: np.ndarray | None = None,
                 rule_weights: np.ndarray | None = None, replay: tuple[list, list, float] | None = None):
        self.similarities = similarities  # (segments,) best fused similarity per segment
        self.offsets = offsets  # (segments + 1,)
        self.theta = theta
        self.rule_weights = rule_weights  # (rows, 3) as the outlier rule built them; None where it was skipped
        self._replay = replay
        if replay is None:  # else the cached properties build them
            self.dissims, self.pooled = dissims, pooled
        self._items: list[EnsembleScore] | None = None

    @functools.cached_property
    def _replayed(self) -> tuple[np.ndarray, np.ndarray]:
        """The kernel's outcomes and pooled values for a float-path call, from what it captured."""
        x, rows, k = self._replay
        dissims = _dissim_rows(np.array(x), RoutingMatrix([np.array(rows)]))
        return dissims, _pool(dissims.T, self.theta, k)[1]

    @functools.cached_property
    def dissims(self) -> np.ndarray:
        """(rows, 3) metric outcomes per centroid row: a ``.T`` view of a (3, rows) buffer."""
        return self._replayed[0]

    @functools.cached_property
    def pooled(self) -> np.ndarray:
        """(rows,) pooled dissimilarity per centroid row."""
        return self._replayed[1]

    def __len__(self) -> int:
        return len(self.similarities)

    def __getitem__(self, i: int | slice):
        if self._items is None:
            self._items = self.ensemble_scores()
        return self._items[i]

    def __iter__(self):
        return iter(self[:])

    def ensemble_scores(self) -> list[EnsembleScore]:
        """One EnsembleScore per segment, taken from its first best row."""
        rows = 1.0 - self.pooled
        top = np.repeat(self.similarities, np.diff(self.offsets))
        # np.argmax's rule within each segment: first maximum, NaN counting as one.
        hits = np.flatnonzero((rows == top) | np.isnan(rows))
        best = hits[np.searchsorted(hits, self.offsets[:-1])]
        n = self.dissims.shape[1]
        w_best = np.full((len(best), n), 1.0 / n) if self.rule_weights is None else self.rule_weights[best]
        return [
            EnsembleScore(
                pooled_dissimilarity=o,
                similarity=1.0 - o,
                per_metric=[MetricOutcome(m, v) for m, v in zip(METRICS, d)],
                weights=WeightVector(w, self.theta),
            )
            for o, d, w in zip(self.pooled[best].tolist(), self.dissims[best].tolist(), w_best)
        ]


def _takes_float_path(matrix: RoutingMatrix, k: float) -> bool:
    """Whether ``score_segments`` may score ``matrix`` in floats, before it reads sum(x).

    The matrix holds its lists (M < 8, at most ``FLOAT_PATH_ROWS`` rows),
    its row sums are fault-free, and the outlier rule is skipped.
    """
    return matrix.floats is not None and matrix.bounded and _rule_skipped(len(METRICS), k)


def _score_floats(xv: np.ndarray, matrix: RoutingMatrix, theta: float, k: float) -> SegmentScores | None:
    """``score_segments`` in plain Python floats, bit for bit: the kernel's arithmetic in its order.

    Only for what ``_takes_float_path`` admits. It returns None, before any
    scoring, unless 0 < sum(x) <= SUM_BOUND: with the matrix's flag, that is
    the kernel's unguarded path, with no division by zero, overflow or NaN.
    Each sum runs left to right, as the kernel adds them.
    c - x and x - c differ only in sign, so |c - x| and min(c, x) come from
    one comparison. J and S are non-negative and K is at most 1, exactly, so
    each needs only its other clip. Pooling is ((J/3 + S/3) + K/3), as
    ``_pool`` sums its leading axis; a segment's similarity is its best row's.
    Nothing else per row is kept: ``SegmentScores`` has the kernel rebuild
    the outcomes and pooled values if they are read.
    """
    x = xv.tolist()
    sx = functools.reduce(operator.add, x, 0.0)  # left to right; sum() compensates from Python 3.12
    if not 0.0 < sx <= SUM_BOUND:
        return None
    third = 1.0 / len(METRICS)
    rows, sums = matrix.floats
    sims = []
    for c, sc in zip(rows, sums):
        a = m = 0.0
        for ci, xi in zip(c, x):
            if ci > xi:
                a += ci - xi
                m += xi
            else:
                a += xi - ci
                m += ci
        t = sx + sc
        j = 2.0 * a / (t + a)
        if j > 1.0:
            j = 1.0
        s = a / t
        if s > 1.0:
            s = 1.0
        kul = 1.0 - (m / sx + m / sc) * 0.5
        if kul < 0.0:
            kul = 0.0
        sims.append(1.0 - (j * third + s * third + kul * third))
    offsets = matrix.offsets
    if len(sims) > len(offsets) - 1:  # some segment holds more than one row
        sims = [max(sims[lo:hi]) for lo, hi in itertools.pairwise(offsets.tolist())]
    return SegmentScores(np.array(sims), offsets, theta, replay=(x, rows, k))


def score_segments(
    xv: np.ndarray,
    matrix: RoutingMatrix,
    theta: float = DEFAULT_THETA,
    k: float = DEFAULT_OUTLIER_K,
) -> SegmentScores:
    """Score an already validated vector against every row of ``matrix`` in one pass.

    Every row is scored by the three metrics, weighted, and pooled; each
    segment's similarity is the best of its rows. Nothing is checked:
    theta/k and the centroid signs are the caller's to check, once. The
    matrix's segments must be non-empty.

    Small matrices are scored in plain Python floats (``_score_floats``),
    where numpy's per-call cost would be most of the time. That path is
    taken when all of these hold: the matrix's row sums are fault-free,
    0 < sum(x) <= SUM_BOUND, M < 8, the outlier rule is skipped (k^2 >= 2n),
    and the matrix has at most ``FLOAT_PATH_ROWS`` rows. It gives the kernel's
    values bit for bit. Everything else takes the kernel.
    """
    if _takes_float_path(matrix, k) and (scores := _score_floats(xv, matrix, theta, k)) is not None:
        return scores
    return _score_kernel(xv, matrix, theta, k)


def _score_kernel(xv: np.ndarray, matrix: RoutingMatrix, theta: float, k: float) -> SegmentScores:
    """``score_segments`` on the numpy kernel, whatever the matrix: ``_dissim_rows``, then ``_pool``."""
    dissims = _dissim_rows(xv, matrix)
    w, pooled = _pool(dissims.T, theta, k)
    best = np.maximum.reduceat(1.0 - pooled, matrix.offsets[:-1])
    return SegmentScores(best, matrix.offsets, theta, dissims, pooled, None if w is None else w.T)


def ensemble_similarity(
    x,
    syn: Synopsis,
    theta: float = DEFAULT_THETA,
    k: float = DEFAULT_OUTLIER_K,
) -> EnsembleScore:
    """Best fused similarity of ``x`` over a synopsis's dominant centroids.

    Every centroid is scored by the three metrics, weighted, and pooled; the
    centroid with the highest similarity wins (ties go to the first row).
    Inputs must be finite and non-negative; this is the entry point for
    synopses built outside the engine, so it checks theta/k and the centroid
    array: its shape, then, before any cast, that its dtype is a real number
    kind (as ``as_vector`` does for vectors), then its values.
    """
    if syn.centroids.ndim != 2 or not len(syn.centroids):
        raise ConfigError(f"synopsis centroid array of shape {syn.centroids.shape}: need one row or more")
    xv = as_vector(x, dim=syn.centroids.shape[1], nonneg=True)
    _check_weight_params(theta, k)
    if syn.centroids.dtype.kind not in _REAL_KINDS:
        raise VectorError(f"malformed input: {syn.centroids.dtype} synopsis centroids are not real numbers")
    if not np.isfinite(syn.centroids).all():
        raise VectorError("malformed input: non-finite synopsis centroid")
    if (syn.centroids < 0).any():
        raise VectorError("domain error: negative synopsis centroid")
    return score_segments(xv, RoutingMatrix([syn.centroids]), theta, k).ensemble_scores()[0]
