"""Dissimilarity metrics, outlier-aware weights, and the fused similarity."""

import dataclasses
import warnings

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
from synalloc.similarity import (
    DEFAULT_OUTLIER_K,
    DEFAULT_THETA,
    METRICS,
    SUM_BOUND,
    RoutingMatrix,
    WeightVector,
    _dissim_rows,
    _outlier_rule,
    _pool,
    score_segments,
)

from conftest import load_bench, make_synopsis

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

    def test_all_dissims_order(self):
        outs = all_dissims([3.0, 1.0], [1.0, 3.0])
        assert [o.metric for o in outs] == list(METRICS)
        assert [o.dissimilarity for o in outs] == pytest.approx([2 / 3, 0.5, 0.5])


# ---------------------------------------------------------------- fused kernel

def reference_dissim_rows(x, centroids):
    """The kernel as three separate sums and masked divisions: the reference for ``_dissim_rows``."""
    sx = float(x.sum())
    sc = centroids.sum(axis=1)
    absdiff = np.abs(centroids - x).sum(axis=1)
    smin = np.minimum(centroids, x).sum(axis=1)

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
        # The matrix sums its rows C-ordered, so a Fortran-ordered block
        # has each row summed in the same order (pairwise from M = 8 on).
        x = rng.uniform(0, 1, 20)
        centroids = rng.uniform(0, 1e3, (30, 20))
        got = dissim_rows(x, np.asfortranarray(centroids))
        assert got.tobytes() == dissim_rows(x, centroids).tobytes()
        assert got.tobytes() == reference_dissim_rows(x, centroids).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 386])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 300])
    def test_matches_the_reference_at_the_layout_edges(self, m, rows):
        # Below M = 8 the sums run over the middle axis of a (2, M, rows) block, from
        # M = 8 on along the rows of a (2, rows, M) one, which numpy sums pairwise and,
        # past 128 elements, splits recursively. Row scales vary over ten decades so
        # that the order of the additions shows in the last bits.
        rng = np.random.default_rng(1000 * m + rows)
        x = rng.uniform(0, 1, m) * 10.0 ** rng.uniform(-5, 5, m)
        centroids = rng.uniform(0, 1, (rows, m)) * 10.0 ** rng.uniform(-5, 5, (rows, 1))
        centroids[1::5] = 0.0
        assert_same_bits(dissim_rows(x, centroids), reference_dissim_rows(x, centroids))
        assert_same_bits(dissim_rows(np.zeros(m), centroids), reference_dissim_rows(np.zeros(m), centroids))

    def test_numpy_sums_fewer_than_eight_terms_left_to_right(self):
        """Canary for the kernels' bit-identity: both lay out sums of fewer than 8 terms
        along a leading axis, which numpy adds one term after the other, where the
        reference formulas sum rows. A numpy that adds short rows in another order
        fails here, before it changes any ``--records`` output."""
        rng = np.random.default_rng(8)
        for m in range(1, 8):
            a = rng.uniform(0, 1, (2000, m)) * 10.0 ** rng.uniform(-300, 300, (2000, 1))
            a *= 10.0 ** rng.uniform(-2, 2, (2000, m))
            left = 0.0 + a[:, 0]
            for j in range(1, m):
                left = left + a[:, j]
            assert a.sum(axis=1).tobytes() == left.tobytes()
            assert a.T.copy().sum(axis=0).tobytes() == left.tobytes()
            right = 0.0 + a[:, -1]
            for j in range(m - 2, -1, -1):
                right = right + a[:, j]
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
        assert matrix.sums.tobytes() == centroids.sum(axis=1).tobytes()
        assert matrix.centroids.flags["F_CONTIGUOUS" if centroids.shape[1] < 8 else "C_CONTIGUOUS"]
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
            assert matrix.centroids.flags["F_CONTIGUOUS" if m < 8 else "C_CONTIGUOUS"]
            for name in ("centroids", "offsets", "sums"):
                assert getattr(matrix, name).tobytes() == getattr(fresh, name).tobytes()
            assert matrix.bounded is fresh.bounded is bounded


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

    def test_rejects_empty_synopsis(self):
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], make_synopsis(np.zeros((0, 2))))
        syn = make_synopsis([[1.0, 2.0]])
        syn.centroids = syn.centroids[0]  # one row, but 1-D
        with pytest.raises(ConfigError):
            ensemble_similarity([1.0, 2.0], syn)
