"""Abundance dissimilarity metrics and their fusion into one similarity score.

Three metrics (quantitative Jaccard, Sorensen/Bray-Curtis, Kulczynski) are
evaluated per centroid, weighted by a simple outlier rule, and combined by
a linear opinion pool. All metrics are defined for non-negative vectors and
land in [0, 1]; similarity is one minus the pooled dissimilarity.

The router's kernels (``_dissim_rows`` and ``_pool``) are metric-major: the
outcomes of all centroid rows live in one (3, rows) buffer, and callers see
(rows, 3) ``.T`` views of it. Their short sums (the M components when M < 8,
and the n = 3 outcomes of a row) run over a leading axis. numpy adds fewer
than 8 terms strictly left to right, along a row or a leading axis alike, so
every value is bit-identical to the row-by-row formulas, and a reduction
over a leading axis costs a fraction of one over many rows of length 3 or 5.
Below 8 components the engine stores its routing matrix in Fortran order
(``in_kernel_order``), so that the kernel's (M, rows) ``.T`` view of it is
contiguous. The outlier rule looks each row's weights up by its outlier
count in two small tables built once per (n, theta), rather than computing
them row by row.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, VectorError
from .synopsis import Synopsis
from .validation import as_vector


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
    return _dissim_rows(xv, sv[None, :])[0]


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
    """Outlier-aware convex weights over metric outcomes.

    A metric is an outlier when its outcome deviates from the outcome mean
    by more than ``k`` population standard deviations. Outliers get the
    small weight ``theta``; the rest share the remainder equally. With all
    outcomes equal (or, degenerately, all flagged) weights are uniform.
    This is the one-column case of ``_pool``, the rule the router applies.
    """
    o = np.asarray(outcomes, dtype=np.float64)
    if o.size < 2:
        raise ConfigError("need at least two metric outcomes")
    _check_weight_params(theta, k, o.size)
    w, _ = _pool(o.reshape(-1, 1), theta, k)
    return WeightVector(np.full(o.size, 1.0 / o.size) if w is None else w[:, 0], theta)


def opinion_pool(outcomes, weights: WeightVector) -> float:
    """Convex combination of outcomes under the given weights."""
    o = np.asarray(outcomes, dtype=np.float64)
    if o.size != weights.weights.size:
        raise VectorError("outcome/weight length mismatch")
    return float(o @ weights.weights)


# Fault-free bound on sum(x) and on every centroid row sum; see ``_dissim_rows``.
SUM_BOUND = 2.0**1020
_UNGUARDED = contextlib.nullcontext()


def centroid_sums(centroids: np.ndarray) -> np.ndarray:
    """Every centroid row's sum, bit for bit as ``_dissim_rows`` would sum it.

    The rows are summed C-ordered, whatever the layout of ``centroids``: that
    is the kernel's layout from M = 8 on, where numpy sums a row pairwise, and
    below 8 numpy adds left to right in any layout.
    """
    return np.add.reduce(np.ascontiguousarray(centroids), axis=1)


def in_kernel_order(centroids: np.ndarray) -> np.ndarray:
    """``centroids`` in the memory order ``_dissim_rows`` reads them in.

    Below 8 components that is Fortran order, which makes the kernel's
    (M, rows) ``.T`` view contiguous. From 8 on the kernel reads rows, and
    numpy sums a row pairwise, so a C-ordered matrix is returned as it is.
    """
    return np.asfortranarray(centroids) if centroids.shape[1] < 8 else centroids


def sums_in_bound(sums: np.ndarray) -> bool:
    """Whether every row sum lies in (0, SUM_BOUND]; NaN fails."""
    return bool(np.minimum.reduce(sums) > 0.0 and np.maximum.reduce(sums) <= SUM_BOUND)


def _dissim_rows(
    x: np.ndarray, centroids: np.ndarray, sums: np.ndarray | None = None, bounded: bool = False
) -> np.ndarray:
    """Metric outcomes for ``x`` against every centroid row; shape (rows, 3).

    With ``a`` the summed absolute difference, ``t`` the total abundance and
    ``m`` the summed shared minimum: J = 2a / (t + a), S = a / t and
    K = 1 - (m / sum(x) + m / sum(c)) / 2. Two all-zero vectors count as
    identical (0), one all-zero vector against any other as disjoint (1).
    Round-off outside [0, 1] is clipped.

    Metric-major: J, S and K go into one (3, rows) buffer, returned as its
    (rows, 3) ``.T`` view. The sums of |c - x| and min(c, x) over the M
    components are one reduction over a scratch block. For M < 8 the block
    is (2, M, rows), summed over its middle axis: numpy adds fewer than 8
    terms left to right along any axis, so the sums equal a row-wise sum bit
    for bit, at a fraction of its cost over many rows. Its inputs are read
    through the (M, rows) ``.T`` view of ``centroids``, which is contiguous
    when the matrix is Fortran-ordered, as ``in_kernel_order`` lays it out.
    From M = 8 on numpy sums a row pairwise, so the block is (2, rows, M)
    and is summed along its rows, read from a C-ordered matrix.
    K is computed in its output row, with no temporary.

    ``sums`` are the row sums ``centroid_sums`` builds, and ``bounded`` says
    whether ``sums_in_bound`` holds for them; the engine keeps both with its
    routing matrix. A caller that passes no sums has them built here.
    """
    rows, m = centroids.shape
    sx = float(np.add.reduce(x))
    if sums is None:
        sums = centroid_sums(centroids)
    if m < 8:
        block = np.empty((2, m, rows))
        c, xv, axis = centroids.T, x[:, None], 1
    else:
        block = np.empty((2, rows, m))
        c, xv, axis = centroids, x, 2
    np.abs(np.subtract(c, xv, out=block[0]), out=block[0])
    np.minimum(c, xv, out=block[1])
    absdiff, smin = np.add.reduce(block, axis)

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
    # Every other call is guarded: a zero or huge x, a zero or huge row sum,
    # and every caller that passes no flag (the scalar metrics and
    # ensemble_similarity).
    guarded = not (bounded and 0.0 < sx <= SUM_BOUND)
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


def _pool(t: np.ndarray, theta: float, k: float) -> tuple[np.ndarray | None, np.ndarray]:
    """The weight rule on metric-major outcomes ``t`` of shape (n, rows).

    Returns the (n, rows) weights and each row's pooled value. Where the rule
    cannot fire, every weight is 1 / n and None stands for them: the pooled
    values need no weights array, and ``ingest`` reads only those. Elsewhere
    ``_outlier_rule`` runs.
    """
    n = t.shape[0]
    if k * k >= 2 * n:
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

    Every sum runs over the leading axis, one term after the other. For
    n < 8 that is the order in which numpy sums a row, so every value is
    bit-identical to the row-major rule. For n >= 8 it is the same whenever
    there is one row, as in ``compute_weights``; the router has n = 3.
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


@dataclass
class SegmentScores(Sequence):
    """Fused scores of one vector against a stack of centroid segments.

    Rows ``offsets[s]`` to ``offsets[s + 1] - 1`` of the stack form segment
    ``s``; in the engine a segment is one partition's synopsis.

    It is also a read-only sequence of each segment's ``EnsembleScore``:
    ``ensemble_scores`` builds them all on the first item read, and later
    reads return the same objects. Every field holds arrays made for this
    one call, plus ``offsets``, which the owner must replace rather than
    patch. So scores read late are the scores as of the call. The fields
    keep what scoring computed: ``rule_weights`` is None where ``_pool`` skipped the rule.
    """

    similarities: np.ndarray  # (segments,) best fused similarity per segment
    dissims: np.ndarray  # (rows, 3) metric outcomes per centroid row
    pooled: np.ndarray  # (rows,)
    offsets: np.ndarray  # (segments + 1,)
    theta: float
    rule_weights: np.ndarray | None  # (rows, 3) as the outlier rule built them; None where it was skipped
    _items: list[EnsembleScore] | None = field(default=None, init=False, repr=False, compare=False)

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


def score_segments(
    xv: np.ndarray,
    centroids: np.ndarray,
    offsets: np.ndarray,
    theta: float = DEFAULT_THETA,
    k: float = DEFAULT_OUTLIER_K,
    sums: np.ndarray | None = None,
    bounded: bool = False,
) -> SegmentScores:
    """Score an already validated vector against every centroid row in one pass.

    Every row is scored by the three metrics, weighted, and pooled; each
    segment's similarity is the best of its rows. ``offsets`` must start at 0,
    end at the row count, and describe non-empty segments. Nothing is checked:
    theta/k and the centroid signs are the caller's to check, once. ``sums``
    and ``bounded`` are the rows' ``centroid_sums`` and whether they are
    ``sums_in_bound``: a caller that keeps the matrix keeps them with it, and
    ``_dissim_rows`` then neither sums the rows nor, for 0 < sum(x) <= 2^1020
    under the bound, guards its divisions.
    """
    dissims = _dissim_rows(xv, centroids, sums, bounded)
    w, pooled = _pool(dissims.T, theta, k)
    best = np.maximum.reduceat(1.0 - pooled, offsets[:-1])
    return SegmentScores(best, dissims, pooled, offsets, theta, None if w is None else w.T)


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
    array.
    """
    if syn.centroids.ndim != 2 or not len(syn.centroids):
        raise ConfigError(f"synopsis centroid array of shape {syn.centroids.shape}: need one row or more")
    xv = as_vector(x, dim=syn.centroids.shape[1], nonneg=True)
    _check_weight_params(theta, k)
    if not np.isfinite(syn.centroids).all():
        raise VectorError("malformed input: non-finite synopsis centroid")
    if (syn.centroids < 0).any():
        raise VectorError("domain error: negative synopsis centroid")
    offsets = np.array([0, syn.centroids.shape[0]])
    return score_segments(xv, syn.centroids, offsets, theta, k).ensemble_scores()[0]
