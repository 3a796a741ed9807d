"""Abundance dissimilarity metrics and their fusion into one similarity score.

Three metrics (quantitative Jaccard, Sorensen/Bray-Curtis, Kulczynski) are
evaluated per centroid, weighted by a simple outlier rule, and combined by
a linear opinion pool. All metrics are defined for non-negative vectors and
land in [0, 1]; similarity is one minus the pooled dissimilarity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


@dataclass
class WeightVector:
    weights: np.ndarray
    theta: float


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
    This is the one-row case of ``_pool_rows``, the rule the router applies.
    """
    o = np.asarray(outcomes, dtype=np.float64)
    if o.size < 2:
        raise ConfigError("need at least two metric outcomes")
    _check_weight_params(theta, k, o.size)
    w, _ = _pool_rows(o.reshape(1, -1), theta, k)
    return WeightVector(w[0], theta)


def opinion_pool(outcomes, weights: WeightVector) -> float:
    """Convex combination of outcomes under the given weights."""
    o = np.asarray(outcomes, dtype=np.float64)
    if o.size != weights.weights.size:
        raise VectorError("outcome/weight length mismatch")
    return float(o @ weights.weights)


def _dissim_rows(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Metric outcomes for ``x`` against every centroid row; shape (rows, 3).

    With ``a`` the summed absolute difference, ``t`` the total abundance and
    ``m`` the summed shared minimum: J = 2a / (t + a), S = a / t and
    K = 1 - (m / sum(x) + m / sum(c)) / 2. Two all-zero vectors count as
    identical (0), one all-zero vector against any other as disjoint (1).
    Round-off outside [0, 1] is clipped.
    """
    rows = centroids.shape[0]
    sx = float(x.sum())
    # One reduction for the three sums; each row is summed as centroids.sum(axis=1) would.
    block = np.empty((3, rows, x.shape[0]))
    np.abs(np.subtract(centroids, x, out=block[0]), out=block[0])
    np.minimum(centroids, x, out=block[1])
    block[2] = centroids
    absdiff, smin, sc = block.sum(axis=2)

    out = np.empty((rows, 3))
    tot = sx + sc
    # Inputs are non-negative, so a zero denominator needs sc == 0: those rows are set below.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(2.0 * absdiff, tot + absdiff, out=out[:, 0])
        np.divide(absdiff, tot, out=out[:, 1])
        out[:, 2] = 1.0 if sx == 0.0 else 1.0 - 0.5 * (smin / sx + smin / sc)
    empty = sc == 0.0
    if empty.any():
        if sx == 0.0:
            out[empty] = 0.0
        else:
            out[empty, 2] = 1.0
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def _pool_rows(dissims: np.ndarray, theta: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Outlier-aware weights for every row of outcomes, and each row's pooled value.

    Per row, outcomes more than ``k`` population stds from the row mean get
    ``theta`` and the rest share the remainder equally; a row whose outcomes
    are all equal, or all flagged, gets uniform weights.
    """
    n = dissims.shape[1]
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
        w = np.full(dissims.shape, 1.0 / n)
        return w, (dissims * w).sum(axis=1)
    # np.mean's and np.std's own steps, with the deviations kept for the test.
    dev = dissims - dissims.sum(axis=1, keepdims=True) / n
    d = np.sqrt(np.square(dev).sum(axis=1, keepdims=True) / n)
    outlier = np.abs(dev) > k * d
    n_out = outlier.sum(axis=1, keepdims=True)
    share = (1.0 - n_out * theta) / np.maximum(n - n_out, 1)
    w = np.where(outlier, theta, share)
    degenerate = (d == 0.0) | (n_out == n)
    w = np.where(degenerate, 1.0 / n, w)
    return w, (dissims * w).sum(axis=1)


@dataclass
class SegmentScores:
    """Fused scores of one vector against a stack of centroid segments.

    Rows ``offsets[s]`` to ``offsets[s + 1] - 1`` of the stack form segment
    ``s``; in the engine a segment is one partition's synopsis.
    """

    similarities: np.ndarray  # (segments,) best fused similarity per segment
    dissims: np.ndarray  # (rows, 3) metric outcomes per centroid row
    weights: np.ndarray  # (rows, 3)
    pooled: np.ndarray  # (rows,)
    offsets: np.ndarray  # (segments + 1,)
    theta: float

    def ensemble_scores(self) -> list[EnsembleScore]:
        """One EnsembleScore per segment, taken from its first best row."""
        rows = 1.0 - self.pooled
        top = np.repeat(self.similarities, np.diff(self.offsets))
        # np.argmax's rule within each segment: first maximum, NaN counting as one.
        hits = np.flatnonzero((rows == top) | np.isnan(rows))
        best = hits[np.searchsorted(hits, self.offsets[:-1])]
        return [
            EnsembleScore(
                pooled_dissimilarity=o,
                similarity=1.0 - o,
                per_metric=[MetricOutcome(m, v) for m, v in zip(METRICS, d)],
                weights=WeightVector(w, self.theta),
            )
            for o, d, w in zip(
                self.pooled[best].tolist(), self.dissims[best].tolist(), self.weights[best]
            )
        ]


def score_segments(
    xv: np.ndarray,
    centroids: np.ndarray,
    offsets: np.ndarray,
    theta: float = DEFAULT_THETA,
    k: float = DEFAULT_OUTLIER_K,
) -> SegmentScores:
    """Score an already validated vector against every centroid row in one pass.

    Every row is scored by the three metrics, weighted, and pooled; each
    segment's similarity is the best of its rows. ``offsets`` must start at 0,
    end at the row count, and describe non-empty segments. Nothing is checked:
    theta/k and the centroid signs are the caller's to check, once.
    """
    dissims = _dissim_rows(xv, centroids)
    w, pooled = _pool_rows(dissims, theta, k)
    best = np.maximum.reduceat(1.0 - pooled, offsets[:-1])
    return SegmentScores(best, dissims, w, pooled, offsets, theta)


def ensemble_similarity(
    x,
    syn: Synopsis,
    theta: float = DEFAULT_THETA,
    k: float = DEFAULT_OUTLIER_K,
) -> EnsembleScore:
    """Best fused similarity of ``x`` over a synopsis's dominant centroids.

    Every centroid is scored by the three metrics, weighted, and pooled; the
    centroid with the highest similarity wins (ties go to the first in the
    dominant list). Inputs must be non-negative; this is the entry point for
    synopses built outside the engine, so it checks theta/k and the centroids.
    """
    if len(syn.dominant) == 0:
        raise ConfigError("synopsis has no dominant clusters")
    xv = as_vector(x, dim=syn.centroids.shape[1], nonneg=True)
    _check_weight_params(theta, k)
    if (syn.centroids < 0).any():
        raise VectorError("domain error: negative synopsis centroid")
    offsets = np.array([0, syn.centroids.shape[0]])
    return score_segments(xv, syn.centroids, offsets, theta, k).ensemble_scores()[0]
