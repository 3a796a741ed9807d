"""Dissimilarity metrics, outlier-aware weights, and the fused similarity."""

import dataclasses
import functools
import math
import operator
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synalloc import (
    ConfigError,
    VectorError,
    all_dissims,
    compute_weights,
    ensemble_similarity,
    jaccard_dissim,
    kulczynski_dissim,
    opinion_pool,
    sorensen_dissim,
)
import synalloc.similarity
from synalloc.similarity import (
    DEFAULT_OUTLIER_K,
    DEFAULT_THETA,
    FLOAT_PATH_CELLS,
    FLOAT_PATH_ROWS,
    METRICS,
    SUM_BOUND,
    RoutingMatrix,
    WeightVector,
    _dissim_rows,
    _outlier_rule,
    _pool,
    _score_kernel,
    score_segments,
)

from conftest import load_bench, make_synopsis, sum_left_to_right

oracle = load_bench("oracle")

ALL_METRICS = [jaccard_dissim, sorensen_dissim, kulczynski_dissim]

nonneg_vectors = st.integers(1, 8).flatmap(
    lambda d: st.tuples(
        hnp.arrays(np.float64, d, elements=st.floats(0, 1e6, allow_nan=False)),
        hnp.arrays(np.float64, d, elements=st.floats(0, 1e6, allow_nan=False)),
    )
)


# ---------------------------------------------------------------- metrics

class TestMetrics:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_identical_vectors_have_zero_dissimilarity(self, metric):
        x = np.array([1.5, 0.0, 7.25])
        assert metric(x, x) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_disjoint_support_is_maximal(self, metric):
        assert metric([5.0, 0.0], [0.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_reference_pair(self):
        x, s = [3.0, 1.0], [1.0, 3.0]
        assert jaccard_dissim(x, s) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sorensen_dissim(x, s) == pytest.approx(0.5, abs=1e-12)
        assert kulczynski_dissim(x, s) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_both_empty_counts_as_identical(self, metric):
        assert metric([0.0, 0.0], [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_one_sided_empty_counts_as_disjoint(self, metric):
        assert metric([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert metric([1.0, 2.0], [0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(pair=nonneg_vectors)
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_symmetric(self, metric, pair):
        x, s = pair
        d = metric(x, s)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(metric(s, x), abs=1e-12)

    @given(pair=nonneg_vectors)
    @settings(max_examples=200, deadline=None)
    def test_jaccard_sorensen_identity(self, pair):
        """O1 and O2 are algebraically tied: O1 = 2*O2 / (1 + O2)."""
        x, s = pair
        o1, o2 = jaccard_dissim(x, s), sorensen_dissim(x, s)
        assert o1 == pytest.approx(2.0 * o2 / (1.0 + o2), abs=1e-12)

    def test_rejects_negative_components(self):
        with pytest.raises(VectorError):
            jaccard_dissim([-1.0, 2.0], [1.0, 2.0])
        with pytest.raises(VectorError):
            kulczynski_dissim([1.0, 2.0], [1.0, -2.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(VectorError):
            sorensen_dissim([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("metric", ALL_METRICS + [all_dissims])
    def test_rejects_vectors_with_no_components(self, metric):
        # Two empty sums would read as two all-zero vectors: identical.
        with pytest.raises(VectorError, match="^expected a vector of one component or more, got none$"):
            metric([], [])

    def test_all_dissims_order(self):
        outs = all_dissims([3.0, 1.0], [1.0, 3.0])
        assert [o.metric for o in outs] == list(METRICS)
        assert [o.dissimilarity for o in outs] == pytest.approx([2 / 3, 0.5, 0.5])


# ---------------------------------------------------------------- fused kernel

def reference_dissim_rows(x, centroids):
    """The kernel as three separate sums and masked divisions: the reference for ``_dissim_rows``.

    Every sum over the M components is added left to right, at every M.
    """
    sx = float(sum_left_to_right(x))
    sc = sum_left_to_right(centroids)
    absdiff = sum_left_to_right(np.abs(centroids - x))
    smin = sum_left_to_right(np.minimum(centroids, x))

    tot = sx + sc
    denom1 = tot + absdiff
    o1 = np.divide(2.0 * absdiff, denom1, out=np.zeros_like(sc), where=denom1 > 0)
    o2 = np.divide(absdiff, tot, out=np.zeros_like(sc), where=tot > 0)

    if sx == 0.0:
        o3 = np.where(sc > 0, 1.0, 0.0)
    else:
        half = smin / sx + np.divide(smin, sc, out=np.zeros_like(sc), where=sc > 0)
        o3 = np.where(sc > 0, 1.0 - 0.5 * half, 1.0)
    return np.clip(np.stack([o1, o2, o3], axis=1), 0.0, 1.0)


def dissim_rows(x, centroids, guarded=False):
    """``_dissim_rows`` over a one-segment matrix of ``centroids``; ``guarded`` lowers its fault-free flag."""
    matrix = RoutingMatrix([centroids])
    if guarded:
        matrix.bounded = False
    return _dissim_rows(x, matrix)


def assert_same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@st.composite
def kernel_cases(draw, m=None):
    """A vector and centroid rows at one magnitude, with zeros placed on purpose."""
    m = draw(st.integers(1, 40)) if m is None else m
    rows = draw(st.integers(1, 400))
    scale = 10.0 ** draw(st.integers(-300, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, m) * scale
    centroids = rng.uniform(0.0, 1.0, (rows, m)) * scale
    if draw(st.booleans()):  # near-copies of x, so that differences are small
        near = rng.random(rows) < 0.5
        centroids[near] = x * (1.0 + rng.uniform(-1e-9, 1e-9, (int(near.sum()), m)))
    if draw(st.booleans()):
        x[:] = 0.0
    if draw(st.booleans()):
        centroids[rng.random(rows) < 0.3] = 0.0
    if draw(st.booleans()):  # zero columns in both
        cols = rng.random(m) < 0.5
        x[cols] = 0.0
        centroids[:, cols] = 0.0
    return x, centroids


class TestFusedKernel:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_bit_for_bit(self, case):
        x, centroids = case
        with np.errstate(all="ignore"):  # sums near 1e300 overflow in both
            assert_same_bits(dissim_rows(x, centroids, guarded=True), reference_dissim_rows(x, centroids))

    def test_does_not_depend_on_the_memory_layout(self, rng):
        # The matrix stacks every block Fortran-ordered and sums each row left
        # to right, so a C-ordered block and a Fortran-ordered one score alike.
        x = rng.uniform(0, 1, 20)
        centroids = rng.uniform(0, 1e3, (30, 20))
        got = dissim_rows(x, np.asfortranarray(centroids))
        assert got.tobytes() == dissim_rows(x, centroids).tobytes()
        assert got.tobytes() == reference_dissim_rows(x, centroids).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 386])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 300])
    def test_matches_the_reference_at_the_layout_edges(self, m, rows):
        # At every M the sums run over the middle axis of a (2, M, rows) block, left
        # to right; at one row, where numpy would sum pairwise from M = 8 on and, past
        # 128 elements, split recursively, through accumulate. Row scales vary over ten
        # decades so that the order of the additions shows in the last bits.
        rng = np.random.default_rng(1000 * m + rows)
        x = rng.uniform(0, 1, m) * 10.0 ** rng.uniform(-5, 5, m)
        centroids = rng.uniform(0, 1, (rows, m)) * 10.0 ** rng.uniform(-5, 5, (rows, 1))
        centroids[1::5] = 0.0
        assert_same_bits(dissim_rows(x, centroids), reference_dissim_rows(x, centroids))
        assert_same_bits(dissim_rows(np.zeros(m), centroids), reference_dissim_rows(np.zeros(m), centroids))

    def test_numpy_sums_fewer_than_eight_terms_left_to_right(self):
        """Canary for the kernels' bit-identity. They sum the M components over a leading
        axis, where the reference formulas add each row left to right. Pinned here:
        numpy adds fewer than 8 terms left to right along a row or a leading axis alike;
        it adds a leading axis left to right at any length up to 300 while the other axes
        hold 2 rows or more; with one row it sums that axis as it sums a vector, pairwise
        from 8 terms; and ``accumulate`` adds left to right at any length. The last two
        are why ``_component_sums`` accumulates one row. A numpy that adds in another
        order fails here, before it changes any ``--records`` output."""
        rng = np.random.default_rng(8)
        for m in [*range(1, 10), 16, 64, 128, 129, 300]:
            a = rng.uniform(0, 1, (400, m)) * 10.0 ** rng.uniform(-300, 300, (400, 1))
            a *= 10.0 ** rng.uniform(-2, 2, (400, m))
            left = sum_left_to_right(a)
            assert a.T.copy().sum(axis=0).tobytes() == left.tobytes()
            assert np.add.accumulate(a.T, axis=0)[-1].tobytes() == left.tobytes()
            one_row = np.array([row[:, None].sum(axis=0)[0] for row in a])
            assert one_row.tobytes() == a.sum(axis=1).tobytes()  # a vector's sum, row by row
            assert np.array([np.add.accumulate(row)[-1] for row in a]).tobytes() == left.tobytes()
            assert (one_row != left).any() == (m >= 8)
            right = sum_left_to_right(a[:, ::-1])
            assert (right != left).any() == (m >= 3)  # the order shows in the sums

    @pytest.mark.parametrize("x_zero", [False, True])
    def test_ordinary_inputs_raise_no_warning(self, rng, x_zero):
        x = np.zeros(5) if x_zero else rng.uniform(0, 10, 5)
        centroids = rng.uniform(0, 10, (6, 5))
        centroids[[1, 4]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dissim_rows(x, centroids)
        assert_same_bits(got, reference_dissim_rows(x, centroids))
        assert got[[1, 4]].tolist() == [[0.0 if x_zero else 1.0] * 3] * 2  # identical / disjoint

    @given(st.one_of(kernel_cases(), st.sampled_from([1, 7, 8, 9, 129]).flatmap(kernel_cases)), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_with_the_matrix_sums_matches_the_reference_bit_for_bit(self, case, fortran):
        # The sums and flag as the engine builds them, from blocks in either memory layout.
        x, centroids = case
        matrix = RoutingMatrix([np.asfortranarray(centroids) if fortran else centroids])
        assert matrix.sums.tobytes() == sum_left_to_right(centroids).tobytes()
        assert matrix.centroids.flags["F_CONTIGUOUS"]
        assert matrix.centroids.tobytes() == centroids.tobytes()
        with np.errstate(all="ignore"):  # sums near 1e300 overflow in both
            got = _dissim_rows(x, matrix)
            assert_same_bits(got, reference_dissim_rows(x, centroids))

    @pytest.mark.parametrize("m", [3, 9])
    @pytest.mark.parametrize(
        "x_sum, row_sum",
        [(np.nextafter(SUM_BOUND, 0.0), SUM_BOUND), (SUM_BOUND, SUM_BOUND), (np.nextafter(SUM_BOUND, np.inf), 1.0),
         (1.0, np.nextafter(SUM_BOUND, 0.0)), (1.0, np.nextafter(SUM_BOUND, np.inf)), (5e-324, SUM_BOUND),
         (5e-324, 5e-324), (0.0, 1.0)],
    )
    def test_the_unguarded_path_raises_nothing(self, monkeypatch, m, x_sum, row_sum):
        # x and the last row put their whole sum in one component, so that the sums are exact;
        # the other rows sum to at most 0.24 and one to a subnormal.
        x = np.zeros(m)
        x[0] = x_sum
        centroids = np.array([[0.05, 0.02, 0.01] * 3, [3e-320] * 9])[:, :m]
        centroids = np.vstack([centroids, np.zeros(m)])
        centroids[-1, -1] = row_sum
        matrix = RoutingMatrix([centroids])
        assert float(np.add.reduce(x)) == x_sum and matrix.sums[-1] == row_sum
        unguarded = matrix.bounded and 0.0 < x_sum <= SUM_BOUND
        assert unguarded == (0.0 < x_sum <= SUM_BOUND and row_sum <= SUM_BOUND)

        errstate, entered = np.errstate, []
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        with errstate(over="raise", divide="raise", invalid="raise"):
            got = _dissim_rows(x, matrix)
        assert entered == ([] if unguarded else [{"divide": "ignore", "invalid": "ignore"}])
        with errstate(all="ignore"):
            assert_same_bits(got, reference_dissim_rows(x, centroids))

    def test_a_zero_row_sum_or_nan_fails_the_bound(self):
        # One-component rows: each row's sum is its value.
        assert RoutingMatrix([np.array([[1.0], [SUM_BOUND], [5e-324]])]).bounded is True
        for sums in ([1.0, 0.0], [1.0, -0.0], [1.0, np.nan], [np.inf, 1.0], [np.nextafter(SUM_BOUND, np.inf)]):
            assert RoutingMatrix([np.array(sums)[:, None]]).bounded is False


    @pytest.mark.parametrize("m", [8, 9, 129, 300])
    def test_every_one_row_path_sums_left_to_right(self, m):
        """Where numpy would sum one row pairwise, each one-row path still adds left to right:
        a one-row matrix, a patch of a one-row segment (alone and among other rows),
        ``ensemble_similarity`` on one centroid, and the three scalar metrics. Component
        scales span ten decades, so that the order shows. A row of -0.0s sums to +0.0, as
        it does among other rows."""
        rng = np.random.default_rng(m)
        pairwise_differs = False
        for _ in range(20):
            x = rng.uniform(0, 1, m) * 10.0 ** rng.uniform(-5, 5, m)
            c = rng.uniform(0, 1, (1, m)) * 10.0 ** rng.uniform(-5, 5, m)
            want, sums = reference_dissim_rows(x, c), sum_left_to_right(c)
            pairwise_differs |= bool(np.add.reduce(c[0]) != sums[0] or np.add.reduce(x) != sum_left_to_right(x))
            built = RoutingMatrix([c])
            alone = RoutingMatrix([rng.uniform(0, 1, (1, m))])
            patched = RoutingMatrix([rng.uniform(0, 1, (1, m)), rng.uniform(0, 1, (3, m))])
            assert alone.patch(0, c) and patched.patch(0, c)
            for matrix in (built, alone, patched):
                assert matrix.sums[:1].tobytes() == sums.tobytes()
                assert _dissim_rows(x, matrix)[:1].tobytes() == want.tobytes()
            score = ensemble_similarity(x, make_synopsis(c))
            assert np.array([o.dissimilarity for o in score.per_metric]).tobytes() == want[0].tobytes()
            pooled = _pool(want.T.copy(), DEFAULT_THETA, DEFAULT_OUTLIER_K)[1]
            assert np.float64(score.pooled_dissimilarity).tobytes() == pooled.tobytes()
            assert np.array([f(x, c[0]) for f in ALL_METRICS]).tobytes() == want[0].tobytes()
        assert pairwise_differs  # a pairwise sum would show in these draws
        zeros = np.full((1, m), -0.0)
        matrix = RoutingMatrix([zeros, np.ones((2, m))])
        assert matrix.patch(0, zeros)
        for sums in (RoutingMatrix([zeros]).sums, matrix.sums[:1]):
            assert sums.tobytes() == np.zeros(1).tobytes()


class TestRoutingMatrix:
    @pytest.mark.parametrize("m", [2, 9])
    def test_patch_writes_a_segment_in_place_only_at_its_row_count(self, rng, m):
        a, b, zeros = rng.uniform(0, 1, (2, m)), rng.uniform(0, 1, (3, m)), np.zeros((3, m))
        matrix = RoutingMatrix([a, b])
        arrays = (matrix.centroids, matrix.offsets, matrix.sums)
        before = [x.tobytes() for x in arrays]
        assert matrix.patch(1, zeros[:2]) is False  # two rows for three: nothing changes
        assert [x.tobytes() for x in arrays] == before and matrix.bounded is True
        for rows, bounded in ((zeros, False), (b, True)):  # a zero row brings the flag down, a scan back up
            assert matrix.patch(1, rows) is True
            fresh = RoutingMatrix([a, rows])
            assert all(x is y for x, y in zip((matrix.centroids, matrix.offsets, matrix.sums), arrays))
            assert matrix.centroids.flags["F_CONTIGUOUS"]
            for name in ("centroids", "offsets", "sums"):
                assert getattr(matrix, name).tobytes() == getattr(fresh, name).tobytes()
            assert matrix.bounded is fresh.bounded is bounded
            assert matrix.floats == fresh.floats and (matrix.floats is None) is not bounded


    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_stacks_integer_rows_as_float64(self, dtype):
        # 2^62 + 2^62 wraps to -2^63 in int64, and 2^63 + 2^63 to 0 in uint64.
        rows = np.array([[2**62, 2**62], [3, 1]] if dtype is np.int64 else [[2**63, 2**63], [3, 1]], dtype=dtype)
        matrix, cast = RoutingMatrix([rows]), RoutingMatrix([rows.astype(np.float64)])
        assert matrix.centroids.dtype == np.float64
        for name in ("centroids", "sums"):
            assert getattr(matrix, name).tobytes() == getattr(cast, name).tobytes()
        assert matrix.bounded is cast.bounded is True
        assert matrix.floats == cast.floats and all(type(v) is float for row in matrix.floats[0] for v in row)


# ---------------------------------------------------------------- float path

K_AROUND_SQRT6 = [1.2, float(np.nextafter(math.sqrt(6.0), 0.0)), math.sqrt(6.0),
                  float(np.nextafter(math.sqrt(6.0), np.inf)), 3.0]
NEAR_SUM_BOUND = [SUM_BOUND / 2, float(np.nextafter(SUM_BOUND, 0.0)), SUM_BOUND, float(np.nextafter(SUM_BOUND, np.inf))]


@st.composite
def float_path_cases(draw):
    """x and segmented rows on both sides of every bound of the float path's dispatch.

    M is drawn from 1 to past FLOAT_PATH_CELLS, and the row count on both sides of the last
    that fits (FLOAT_PATH_ROWS, or fewer by FLOAT_PATH_CELLS), with that count and the next
    drawn often. Components span 1e-3 to 1e3; x may hold zeros of either sign or
    subnormals, a row may copy x, be all zero or hold subnormals, and x or a row may sum
    to near SUM_BOUND. One segment may be patched afterwards, at its row count.
    """
    m = draw(st.sampled_from([1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 32, 57, 112, 113]))
    fits = min(FLOAT_PATH_ROWS, FLOAT_PATH_CELLS // m)
    n_rows = draw(st.one_of(st.integers(1, fits + 2), st.sampled_from([max(fits, 1), fits + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, m)

    def rows_like(n):
        rows = rng.uniform(0, 1, (n, m)) * scale * 10.0 ** rng.uniform(-1, 1, (n, 1))
        if draw(st.booleans()):  # copies and near-copies of x: J and S near 0, K clipped at 0
            near = rng.random(n) < 0.5
            rows[near] = x * (1.0 + rng.uniform(-1e-12, 1e-12, (int(near.sum()), m)) * rng.integers(0, 2, (1, m)))
        if draw(st.booleans()):
            rows[rng.random((n, m)) < 0.3] = 5e-324 * rng.integers(1, 1000)
        if draw(st.booleans()):  # a zero row fails the bound
            rows[rng.integers(n)] = 0.0
        if draw(st.booleans()):
            rows[rng.integers(n), 0] = draw(st.sampled_from(NEAR_SUM_BOUND))
        return rows

    x = rng.uniform(0, 1, m) * scale
    kind = draw(st.sampled_from(["plain", "zeros", "subnormal", "all_zero", "near_bound"]))
    if kind == "zeros":
        zero = rng.random(m) < 0.5
        x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    elif kind == "subnormal":
        x[rng.random(m) < 0.5] = 5e-324 * rng.integers(1, 1000)
    elif kind == "all_zero":
        x[:] = 0.0
    elif kind == "near_bound":
        x[0] = draw(st.sampled_from(NEAR_SUM_BOUND))
    rows = rows_like(n_rows)
    cuts = sorted(rng.choice(np.arange(1, n_rows), size=int(rng.integers(0, n_rows)), replace=False).tolist())
    blocks = np.split(rows, cuts)
    patch = None
    if draw(st.booleans()):
        s = int(rng.integers(len(blocks)))
        patch = s, rows_like(len(blocks[s]))
    return x, blocks, patch, draw(st.floats(0.01, 0.3)), draw(st.sampled_from(K_AROUND_SQRT6))


def score_bits(scores):
    """Every number of every EnsembleScore in ``scores``, as bytes."""
    return [np.array([s.pooled_dissimilarity, s.similarity, *(o.dissimilarity for o in s.per_metric),
                      *s.weights.weights, s.weights.theta]).tobytes() for s in scores]


class TestFloatPath:
    @given(float_path_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_kernel_bit_for_bit_where_the_dispatch_admits_it(self, case):
        x, blocks, patch, theta, k = case
        matrix = RoutingMatrix(blocks)
        if patch is not None:  # the lists must follow the patched rows
            s, rows = patch
            assert matrix.patch(s, rows)
            blocks[s] = rows
        rows = np.concatenate(blocks)
        sums, m = rows.sum(axis=1), rows.shape[1]
        with np.errstate(all="ignore"):
            sx = float(x.sum())
        takes = bool(len(rows) <= FLOAT_PATH_ROWS and len(rows) * m <= FLOAT_PATH_CELLS and k * k >= 2 * len(METRICS)
                     and (sums > 0.0).all() and (sums <= SUM_BOUND).all() and 0.0 < sx <= SUM_BOUND)

        real = synalloc.similarity._dissim_rows
        with np.errstate(all="ignore"), mock.patch.object(synalloc.similarity, "_dissim_rows", wraps=real) as kernel:
            got = score_segments(x, matrix, theta, k)
            assert kernel.called is not takes
            want = _score_kernel(x, RoutingMatrix(blocks), theta, k)

        assert_same_bits(got.similarities, want.similarities)
        assert np.argmax(got.similarities) == np.argmax(want.similarities)
        assert got.rule_weights is None if want.rule_weights is None else got.rule_weights.tobytes() == want.rule_weights.tobytes()
        for name in ("dissims", "pooled"):  # built on first read on the float path
            g, w = getattr(got, name), getattr(want, name)
            assert_same_bits(g, w)
            assert g.strides == w.strides
        assert score_bits(got) == score_bits(want)

    @pytest.mark.parametrize("m, fits", [(1, 16), (5, 16), (7, 16), (8, 14), (9, 12), (16, 7), (112, 1), (113, 0)])
    def test_the_lists_are_held_exactly_where_the_dispatch_can_use_them(self, rng, m, fits):
        for n_rows in range(max(fits, 1), fits + 2):  # the last row count that fits and the next
            rows = rng.uniform(0, 1, (n_rows, m))
            assert (RoutingMatrix([rows]).floats is not None) is (0 < n_rows <= fits)
            rows[-1:] = 0.0  # a zero row brings the flag down, and the lists with it
            assert RoutingMatrix([rows]).floats is None

    def test_a_patch_rebinds_the_lists(self, rng):
        a, b = rng.uniform(0, 1, (2, 5)), rng.uniform(0, 1, (1, 5))
        matrix = RoutingMatrix([a, b])
        rows, sums = old = matrix.floats
        kept = ([r.copy() for r in rows], sums.copy())
        assert matrix.patch(0, rng.uniform(0, 1, (2, 5)))
        assert matrix.floats[0] is not rows and matrix.floats[1] is not sums
        assert old == kept  # the old lists are as they were
        assert matrix.floats == (matrix.centroids.tolist(), matrix.sums.tolist())
        assert matrix.patch(1, np.zeros((1, 5))) and matrix.floats is None  # the flag goes down
        assert matrix.patch(1, b) and matrix.floats == (matrix.centroids.tolist(), matrix.sums.tolist())


def _vector_or_zero(d):
    return st.one_of(
        st.just(np.zeros(d)),
        hnp.arrays(np.float64, d, elements=st.floats(0, 1e6, allow_nan=False)),
    )


class TestPublicApiMatchesOracle:
    """The public scalar functions against the loop-based oracle in bench/oracle.py."""

    @given(
        pair=st.integers(1, 8).flatmap(lambda d: st.tuples(_vector_or_zero(d), _vector_or_zero(d))),
        theta=st.floats(0.01, 0.3),
        k=st.floats(0.5, 1.4),  # below sqrt(2), so that three outcomes can flag one
    )
    @settings(max_examples=500, deadline=None)
    def test_metrics_and_pool(self, pair, theta, k):
        x, s = pair
        want = list(oracle.dissimilarities(x.tolist(), s.tolist()))
        assert [m(x, s) for m in ALL_METRICS] == pytest.approx(want, abs=1e-12)
        pooled = opinion_pool(want, compute_weights(want, theta, k))
        assert pooled == pytest.approx(oracle.pooled(want, theta, k), abs=1e-12)

    @given(
        pair=st.integers(1, 9).flatmap(lambda d: st.tuples(_vector_or_zero(d), _vector_or_zero(d))),
        theta=st.floats(0.01, 0.3),
        k=st.sampled_from([1.0, 1.35, 3.0]),  # the rule can fire, fires rarely, is skipped
    )
    @settings(max_examples=500, deadline=None)
    def test_opinion_pool_is_the_routers_pool(self, pair, theta, k):
        x, c = pair
        outcomes = [o.dissimilarity for o in all_dissims(x, c)]
        pooled = opinion_pool(outcomes, compute_weights(outcomes, theta, k))
        routed = ensemble_similarity(x, make_synopsis(c), theta, k).pooled_dissimilarity
        assert np.float64(pooled).tobytes() == np.float64(routed).tobytes(), (pooled, routed)


# ---------------------------------------------------------------- weights

class TestWeights:
    def test_uniform_when_no_outliers(self):
        wv = compute_weights([0.2, 0.3, 0.4], theta=0.1)
        assert np.allclose(wv.weights, 1 / 3)

    def test_three_metrics_never_flag_at_three_sigma(self, rng):
        # with three outcomes the largest possible z-score is 2/sqrt(3) < 3
        for _ in range(500):
            wv = compute_weights(rng.uniform(0, 1, size=3), theta=0.1, k=3.0)
            assert np.array_equal(wv.weights, np.full(3, 1 / 3))

    def test_single_outlier_gets_theta(self):
        # the 1.0 sits two population stds above the mean; k=1.5 flags it
        wv = compute_weights([0.0, 0.0, 0.0, 0.0, 1.0], theta=0.1, k=1.5)
        assert sorted(wv.weights) == pytest.approx([0.1, 0.225, 0.225, 0.225, 0.225])
        assert wv.weights[-1] == pytest.approx(0.1)

    def test_identical_outcomes_are_uniform(self):
        wv = compute_weights([0.7, 0.7, 0.7, 0.7], theta=0.2)
        assert np.allclose(wv.weights, 0.25)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=9),
        st.floats(0.001, 0.3),
        st.floats(0.5, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_are_convex(self, outcomes, theta, k):
        assume(theta < 1.0 / len(outcomes))
        wv = compute_weights(outcomes, theta=theta, k=k)
        assert (wv.weights > 0).all()
        assert wv.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_theta_bounds(self):
        with pytest.raises(ConfigError):
            compute_weights([0.1, 0.2, 0.3], theta=0.0)
        with pytest.raises(ConfigError):
            compute_weights([0.1, 0.2, 0.3], theta=1 / 3)
        with pytest.raises(ConfigError):
            compute_weights([0.1, 0.2], theta=0.1, k=0.0)
        with pytest.raises(ConfigError):
            compute_weights([0.1, 0.2, 0.9], theta=0.1, k=float("nan"))
        with pytest.raises(ConfigError):
            compute_weights([0.1], theta=0.1)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=6),
        st.floats(0.01, 0.15),
    )
    @settings(max_examples=150, deadline=None)
    def test_pool_stays_within_outcome_range(self, outcomes, theta):
        assume(theta < 1.0 / len(outcomes))
        wv = compute_weights(outcomes, theta=theta, k=1.0)
        pooled = opinion_pool(outcomes, wv)
        assert min(outcomes) - 1e-12 <= pooled <= max(outcomes) + 1e-12

    def test_weight_vectors_compare_by_value(self):
        fired = compute_weights([0.0, 0.0, 0.0, 0.0, 1.0], 0.05, 1.5)
        uniform = compute_weights([0.0, 0.0, 0.0, 0.0, 0.0], 0.05, 1.5)
        assert fired == WeightVector(fired.weights.copy(), 0.05)
        assert fired != uniform and fired != WeightVector(fired.weights, 0.1) and fired != (fired.weights, 0.05)
        x, syn = [2.0, 1.0], make_synopsis([[1.0, 2.0]])
        score = ensemble_similarity(x, syn, 0.1)
        assert score == ensemble_similarity(x, syn, 0.1)
        other = dataclasses.replace(score, weights=WeightVector(np.array([0.1, 0.45, 0.45]), 0.1))
        assert score != other and [score].count(other) == 0 and other not in [score]

    def test_pool_sums_left_to_right_from_eight_outcomes_on(self):
        # numpy sums these nine products pairwise to 0.5585; left to right they come to 0.5584999999999999.
        outcomes = [0.64, 0.27, 0.04, 0.02, 0.81, 0.91, 0.61, 0.73, 0.54]
        wv = compute_weights(outcomes, theta=0.05, k=1.0)
        products = (np.array(outcomes) * wv.weights).tolist()
        assert opinion_pool(outcomes, wv) == functools.reduce(operator.add, products) != float(np.add.reduce(products))

    @pytest.mark.parametrize("outcomes", [[[0.1, 0.2], [0.3, 0.4]], [np.nan, 0.2, 0.3], ["a", "b", "c"]],
                             ids=["2-D", "NaN", "text"])
    def test_weights_reject_malformed_outcomes(self, outcomes):
        with pytest.raises(VectorError):
            compute_weights(outcomes, 0.1)

    def test_pool_rejects_malformed_outcomes(self):
        with pytest.raises(VectorError):
            opinion_pool([[0.1, 0.2, 0.3]], WeightVector(np.full(3, 1 / 3), theta=0.1))

    def test_pool_length_mismatch(self):
        wv = WeightVector(np.array([0.5, 0.5]), theta=0.1)
        with pytest.raises(VectorError):
            opinion_pool([0.1, 0.2, 0.3], wv)


# ---------------------------------------------------------------- outlier-rule skip

def full_rule(dissims, theta, k):
    """The outlier rule evaluated on every row, with no skip: the reference for ``_pool`` and ``_outlier_rule``."""
    n = dissims.shape[1]
    m = dissims.mean(axis=1, keepdims=True)
    d = dissims.std(axis=1, keepdims=True)
    outlier = np.abs(dissims - m) > k * d
    n_out = outlier.sum(axis=1, keepdims=True)
    share = (1.0 - n_out * theta) / np.maximum(n - n_out, 1)
    w = np.where(outlier, theta, share)
    degenerate = (d == 0.0) | (n_out == n)
    w = np.where(degenerate, 1.0 / n, w)
    return w, (dissims * w).sum(axis=1)


# Three outcomes a few parts in 1e7 apart at 1e-155: the squared deviations are
# subnormal, and the computed z-score of the first is 1.8708 > sqrt(2).
SUBNORMAL_SPREAD_ROW = [9.999995841700118e-156, 1.0000002668839275e-155, 1.0000001489460608e-155]


@st.composite
def outcome_rows(draw, n):
    """A row of ``n`` outcomes: near-equal, spread at subnormal scale, all zero, or with NaNs."""
    kind = draw(st.sampled_from(["near_equal", "scaled_spread", "zero", "nan", "any"]))
    if kind == "zero":
        return [0.0] * n
    if kind == "any":
        return draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    base = 10.0 ** draw(st.floats(-300, 0))
    if kind == "near_equal":  # a few ulps apart
        ulp = float(np.spacing(base))
        row = [base + s * ulp for s in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))]
    else:
        rel = st.floats(-1e-5, 1e-5, allow_nan=False)
        row = [base * (1.0 + r) for r in draw(st.lists(rel, min_size=n, max_size=n))]
    if kind == "nan":
        row[draw(st.integers(0, n - 1))] = float("nan")
    return row


class TestOutlierRuleSkip:
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(outcome_rows(n), min_size=1, max_size=8),
        st.floats(1e-3, 0.999 / n),
        st.floats(0.0, 4.0).map(lambda f: float(np.sqrt(2 * n)) * (1.0 + f)),
    )))
    @settings(max_examples=400, deadline=None)
    def test_skip_matches_the_full_rule_bit_for_bit(self, case):
        rows, theta, k = case
        dissims = np.array(rows)
        n = dissims.shape[1]
        if k * k < 2 * n:  # sqrt(2n) squared can round below 2n
            k = float(np.nextafter(k, np.inf))
        assert k * k >= 2 * n
        w, pooled = _pool(dissims.T, theta, k)
        want_w, want_pooled = full_rule(dissims, theta, k)
        assert w is None  # skipped: the rule builds no weights
        assert want_w.tobytes() == np.full(dissims.shape, 1.0 / n).tobytes()
        assert pooled.tobytes() == want_pooled.tobytes()

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(outcome_rows(n), min_size=1, max_size=8),
        st.booleans(),
        st.floats(1e-3, 0.999 / n),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: float(np.sqrt(2 * n)) * f),
    )))
    @settings(max_examples=400, deadline=None)
    def test_full_path_matches_the_full_rule_bit_for_bit(self, case):
        rows, subnormal, theta, k = case
        n = len(rows[0])
        if subnormal and n == 3:
            rows.append(SUBNORMAL_SPREAD_ROW)
        dissims = np.array(rows)
        assume(k > 0.0)
        assert k * k < 2 * n
        w, pooled = _pool(dissims.T, theta, k)
        want_w, want_pooled = full_rule(dissims, theta, k)
        assert w.T.tobytes() == want_w.tobytes()
        assert pooled.tobytes() == want_pooled.tobytes()

    @pytest.mark.parametrize("theta", [0.1, np.float64(0.1), np.float32(0.1), np.array(0.1)])
    def test_rule_takes_theta_as_any_real_scalar(self, rng, theta):
        # The weights come from tables cached by (n, theta): a 0-d array theta must not reach the cache.
        dissims = rng.uniform(0, 1, (60, 3))
        w, pooled = _outlier_rule(dissims.T, theta, 0.9)
        want_w, want_pooled = full_rule(dissims, theta, 0.9)
        assert (want_w != 1.0 / 3).any()
        assert w.T.tobytes() == want_w.tobytes() and pooled.tobytes() == want_pooled.tobytes()

    @pytest.mark.parametrize("k", [1.35, 3.0])
    def test_pool_does_not_depend_on_the_memory_layout(self, rng, k):
        # The router hands _pool, and the audit _outlier_rule, the kernel's (3, rows) buffer.
        x = rng.uniform(0, 1, 5)
        centroids = rng.uniform(0, 1, (386, 5)) * 10.0 ** rng.uniform(-3, 3, (386, 1))
        view = dissim_rows(x, centroids)
        assert view.T.flags.c_contiguous
        c_order = np.ascontiguousarray(view)
        want_w, want_pooled = full_rule(c_order, 0.1, k)
        if k < 2.0:
            assert (want_w != 1.0 / 3).any(axis=1).mean() > 0.1  # the rule fires on many rows
        for dissims in (c_order, view.copy(order="F"), view):
            w, pooled = _pool(dissims.T, 0.1, k)
            rule_w, rule_pooled = _outlier_rule(dissims.T, 0.1, k)
            if k * k >= 6:
                assert w is None
            else:
                assert w.T.tobytes() == want_w.tobytes()
            assert rule_w.T.tobytes() == want_w.tobytes()
            assert pooled.tobytes() == rule_pooled.tobytes() == want_pooled.tobytes()

    @pytest.mark.parametrize("k", [1.35, 3.0])
    def test_segment_weights_are_built_when_the_rule_runs_or_when_read(self, rng, k):
        x = rng.uniform(0, 1, 5)
        centroids = rng.uniform(0, 1, (40, 5)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        scores = score_segments(x, RoutingMatrix([centroids[:17], centroids[17:]]), 0.1, k)
        want = full_rule(np.ascontiguousarray(scores.dissims), 0.1, k)[0]
        if k * k >= 6:
            assert scores.rule_weights is None  # what ingest leaves unbuilt
        else:
            assert scores.rule_weights.tobytes() == want.tobytes()
        best = [s.weights.weights for s in scores.ensemble_scores()]
        rows = [lo + int(np.argmax(1.0 - scores.pooled[lo:hi])) for lo, hi in [(0, 17), (17, 40)]]
        assert [w.tobytes() for w in best] == [want[r].tobytes() for r in rows]

    def test_subnormal_spread_is_why_the_margin_exceeds_sqrt_n_minus_1(self):
        row = np.array([SUBNORMAL_SPREAD_ROW])
        w, _ = full_rule(row, 0.1, 1.8)  # k = 1.8 > sqrt(n - 1) = sqrt(2), and the rule fires
        assert w[0, 0] == 0.1 and w[0, 1] == w[0, 2] == 0.45
        assert _pool(row.T, 0.1, 1.8)[0].T.tobytes() == w.tobytes()  # below sqrt(6): full rule
        assert _pool(row.T, 0.1, 3.0)[0] is None  # skipped
        assert np.array_equal(full_rule(row, 0.1, 3.0)[0], np.full((1, 3), 1.0 / 3))


# ---------------------------------------------------------------- ensemble

class TestEnsembleSimilarity:
    def test_reference_pair_similarity(self):
        syn = make_synopsis([[1.0, 3.0]])
        score = ensemble_similarity([3.0, 1.0], syn)
        # uniform weights: 1 - (2/3 + 1/2 + 1/2)/3 = 4/9
        assert score.similarity == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert np.allclose(score.weights.weights, 1 / 3)
        assert [o.metric for o in score.per_metric] == list(METRICS)

    def test_identical_vector_scores_one(self):
        syn = make_synopsis([[2.0, 4.0, 6.0]])
        assert ensemble_similarity([2.0, 4.0, 6.0], syn).similarity == pytest.approx(1.0)

    def test_picks_best_centroid(self):
        syn = make_synopsis([[10.0, 10.0], [3.0, 1.0]])
        score = ensemble_similarity([3.0, 1.0], syn)
        assert score.similarity == pytest.approx(1.0)

    def test_tie_prefers_first_centroid(self):
        syn = make_synopsis([[2.0, 2.0], [2.0, 2.0]])
        score = ensemble_similarity([2.0, 2.0], syn)
        assert score.similarity == pytest.approx(1.0)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                hnp.arrays(np.float64, d, elements=st.floats(0, 1e4, allow_nan=False)),
                hnp.arrays(
                    np.float64,
                    st.tuples(st.integers(1, 7), st.just(d)),
                    elements=st.floats(0, 1e4, allow_nan=False),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, case):
        x, centroids = case
        syn = make_synopsis(centroids)
        got = ensemble_similarity(x, syn).similarity
        want = oracle.partition_similarity(x.tolist(), centroids.tolist(), DEFAULT_THETA, DEFAULT_OUTLIER_K)
        assert got == pytest.approx(want, abs=1e-10)

    def test_similarity_is_bounded(self, rng):
        for _ in range(100):
            syn = make_synopsis(rng.uniform(0, 50, size=(4, 3)))
            s = ensemble_similarity(rng.uniform(0, 50, size=3), syn).similarity
            assert 0.0 <= s <= 1.0

    def test_rejects_bad_inputs(self):
        syn = make_synopsis([[1.0, 2.0]])
        with pytest.raises(VectorError):
            ensemble_similarity([-1.0, 2.0], syn)
        with pytest.raises(VectorError):
            ensemble_similarity([1.0, 2.0, 3.0], syn)
        for bad in (np.nan, np.inf):
            with pytest.raises(VectorError, match="^malformed input: non-finite synopsis centroid$"):
                ensemble_similarity([1.0, 2.0], make_synopsis([[bad, 1.0]]))
        with pytest.raises(VectorError, match="^domain error: negative synopsis centroid$"):
            ensemble_similarity([1.0, 2.0], make_synopsis([[-1.0, 1.0]]))
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], syn, theta=0.5)
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], syn, k=-1.0)
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], syn, k=float("nan"))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_centroids_score_as_their_float64_cast(self, dtype):
        # Stacked as int64, 2^62 + 2^62 wrapped to a row sum of -2^63: S read 0.0 and the similarity 0.5.
        x = [1, 1]
        for rows in ([[2**62, 2**62]], [[2**63, 2**63], [3, 1]], [[3, 1], [1, 3]]):
            if dtype is np.int64 and rows[0][0] == 2**63:
                continue
            syn, cast = make_synopsis(rows), make_synopsis(rows)
            syn.centroids = np.array(rows, dtype=dtype)
            got = ensemble_similarity(x, syn)
            assert score_bits([got]) == score_bits([ensemble_similarity(x, cast)])
        got = ensemble_similarity(x, make_synopsis([[2**62, 2**62]]))
        assert got.per_metric[1].dissimilarity == 1.0 and got.similarity == pytest.approx(1 / 6)

    @pytest.mark.parametrize("centroids, dtype", [
        (np.array([[3 + 4j, 1.0]]), "complex128"),
        (np.array([[3 + 0j, 1.0]]), "complex128"),
        (np.array([["3", "1"]]), "<U1"),
        (np.array([[3.0, 1.0]], dtype=object), "object"),
    ])
    def test_rejects_centroids_that_are_not_real_numbers(self, centroids, dtype):
        # Numpy would score complex centroids by their real part, with a ComplexWarning; no warning may escape.
        syn = make_synopsis([[3.0, 1.0]])
        syn.centroids = centroids
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VectorError, match=f"^malformed input: {dtype} synopsis centroids are not real numbers$"):
                ensemble_similarity([1.0, 2.0], syn)

    def test_rejects_empty_synopsis(self):
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], make_synopsis(np.zeros((0, 2))))
        syn = make_synopsis([[1.0, 2.0]])
        syn.centroids = syn.centroids[0]  # one row, but 1-D
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], syn)
        with pytest.raises(ConfigError, match=r"shape \(1, 0\)"):  # one row of no components scored 1.0
            ensemble_similarity([], make_synopsis(np.zeros((1, 0))))

    def test_scores_once_on_the_kernel(self):
        # The score reads the per-row values: the float path would score, then have the kernel replay them.
        sim = synalloc.similarity
        with mock.patch.object(sim, "_score_floats", wraps=sim._score_floats) as floats, \
                mock.patch.object(sim, "_dissim_rows", wraps=sim._dissim_rows) as kernel:
            score = ensemble_similarity([3.0, 1.0], make_synopsis([[1.0, 3.0], [3.0, 2.0]]))
        assert floats.call_count == 0 and kernel.call_count == 1
        assert score.similarity == 1.0 - score.pooled_dissimilarity
