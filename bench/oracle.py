"""Independent routing oracle for the benchmark's correctness gate.

Recomputes a routing decision from published synopses in plain Python
floats, straight from the definitions in PAPER.md, without importing any
synalloc code:

- quantitative Jaccard  J = 1 - sum(min) / sum(max)
- Sorensen (Bray-Curtis) S = sum|x - c| / (sum x + sum c)
- Kulczynski            K = 1 - (sum(min) / sum x + sum(min) / sum c) / 2
- a metric further than k population standard deviations from the mean of
  the three is weighted theta; the others share the rest equally (uniform
  weights when none or all are flagged, or when all three agree);
- similarity is 1 - pooled dissimilarity, a partition scores its best
  centroid, and the vector goes to the best partition (ties: lowest id).
"""

from __future__ import annotations

import math

# Engine and oracle sum in different orders; agreement is required to this
# absolute tolerance on similarities in [0, 1].
SIM_TOL = 1e-9


def _clip01(v: float) -> float:
    return min(1.0, max(0.0, v))


def dissimilarities(x: list[float], c: list[float]) -> tuple[float, float, float]:
    sx, sc = sum(x), sum(c)
    smin = sum(min(a, b) for a, b in zip(x, c))
    smax = sum(max(a, b) for a, b in zip(x, c))
    sabs = sum(abs(a - b) for a, b in zip(x, c))
    j = 0.0 if smax == 0.0 else _clip01(1.0 - smin / smax)
    s = 0.0 if sx + sc == 0.0 else _clip01(sabs / (sx + sc))
    if sx == 0.0 and sc == 0.0:
        k = 0.0
    elif sx == 0.0 or sc == 0.0:
        k = 1.0
    else:
        k = _clip01(1.0 - 0.5 * (smin / sx + smin / sc))
    return j, s, k


def pooled(outcomes: tuple[float, ...], theta: float, k: float) -> float:
    n = len(outcomes)
    mean = sum(outcomes) / n
    sd = math.sqrt(sum((o - mean) ** 2 for o in outcomes) / n)
    flags = [abs(o - mean) > k * sd for o in outcomes]
    n_out = sum(flags)
    if sd == 0.0 or n_out in (0, n):
        return sum(outcomes) / n
    rest = (1.0 - n_out * theta) / (n - n_out)
    return sum(o * (theta if f else rest) for o, f in zip(outcomes, flags))


def partition_similarity(x: list[float], centroids: list[list[float]], theta: float, k: float) -> float:
    return max(1.0 - pooled(dissimilarities(x, c), theta, k) for c in centroids)


def route(x: list[float], synopses: list[list[list[float]]], theta: float, k: float) -> list[float]:
    """Similarity of ``x`` to every partition, in partition order."""
    return [partition_similarity(x, cents, theta, k) for cents in synopses]


def check_decision(
    chosen: int,
    engine_sims: list[float],
    x: list[float],
    synopses: list[list[list[float]]],
    theta: float,
    k: float,
) -> str | None:
    """None when the engine's decision agrees with the oracle, else why not.

    ``chosen`` is 1-based. The engine must report every partition's
    similarity to within SIM_TOL of the oracle, pick a partition within
    SIM_TOL of the oracle's best, and break exact ties in its own reported
    similarities towards the lowest partition id.
    """
    expected = route(x, synopses, theta, k)
    if len(engine_sims) != len(expected):
        return f"{len(engine_sims)} similarities for {len(expected)} partitions"
    for pid, (got, want) in enumerate(zip(engine_sims, expected), start=1):
        if not abs(got - want) <= SIM_TOL:
            return f"partition {pid}: similarity {got!r}, oracle {want!r}"
    if not 1 <= chosen <= len(expected):
        return f"chosen partition {chosen} out of range"
    best = max(expected)
    if expected[chosen - 1] < best - SIM_TOL:
        return f"chose {chosen} ({expected[chosen - 1]!r}), oracle best {best!r}"
    first_max = engine_sims.index(max(engine_sims)) + 1
    if chosen != first_max:
        return f"chose {chosen}, lowest id with the top similarity is {first_max}"
    return None
