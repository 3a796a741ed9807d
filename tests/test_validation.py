"""Input coercion: as_vector's fast accepts against its per-condition checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synalloc import VectorError
from synalloc.validation import FAST_ACCEPT_MAX, as_vector


def per_condition(x, dim=None, nonneg=False):
    """as_vector's checks one condition at a time, in the order that names the fault."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise VectorError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise VectorError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise VectorError("malformed input: non-finite component")
    if nonneg and (v < 0).any():
        raise VectorError("domain error: negative component")
    return v


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).tobytes()
    except VectorError as exc:
        return str(exc)


edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]),
)
# Lengths on both sides of the bound of the list pass, and the empty vector.
lengths = st.integers(0, FAST_ACCEPT_MAX + 8)


def readonly(a):
    a.flags.writeable = False
    return a


def nan_cases(d):
    """A NaN at each position of a d-vector, alone and with a negative component after or before it."""
    for i in range(d):
        for j in (None, (i + 1) % d, (i - 1) % d):
            x = np.full(d, 2.0)
            if j is not None and j != i:
                x[j] = -1.0
            x[i] = np.nan
            yield x


def assert_as_per_condition(x):
    for args in ((), (len(x),)):
        for nonneg in (True, False):
            assert outcome(as_vector, x, *args, nonneg=nonneg) == outcome(per_condition, x, *args, nonneg=nonneg)


class TestAsVector:
    @given(hnp.arrays(np.float64, lengths, elements=edge_floats))
    @settings(max_examples=500, deadline=None)
    def test_accepts_exactly_what_the_per_condition_checks_accept(self, v):
        assert_as_per_condition(v)

    @given(hnp.arrays(np.float64, lengths, elements=st.floats(0.0, 1.7e308)), st.integers(0), edge_floats,
           st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_one_edge_component_anywhere_in_a_valid_vector(self, v, at, value, replace):
        # Edge values drawn element-wise leave few long vectors valid; this draws valid ones and edits one place.
        if replace and len(v):
            v[at % len(v)] = value
        assert_as_per_condition(v)

    @pytest.mark.parametrize("x", [
        pytest.param(np.array([1.0, np.inf]), id="inf"),
        pytest.param(np.arange(12.0)[::2], id="strided"),
        pytest.param(np.array([1.0, np.nan, 2.0, -1.0, 3.0])[::2], id="strided-over-faults"),
        pytest.param(np.array([1.0, np.nan, 2.0, -1.0, 3.0])[1::2], id="strided-onto-faults"),
        pytest.param(np.arange(5.0)[::-1], id="negative-stride"),
        pytest.param(np.array([2.0, np.nan, 1.0])[::-1], id="negative-stride-nan"),
        pytest.param(readonly(np.arange(5.0)), id="read-only"),
        pytest.param(readonly(np.array([1.0, -1.0, 2.0])), id="read-only-negative"),
        pytest.param(np.arange(5.0).astype(">f8"), id="big-endian"),
        pytest.param(np.array([1.0, np.nan], dtype=">f8"), id="big-endian-nan"),
        pytest.param(np.array([1.5, 2.0, 3.0], dtype=np.float32), id="float32"),
        pytest.param(np.array([1.5, np.inf], dtype=np.float32), id="float32-inf"),
        pytest.param(np.array([1, 2, 3]), id="int"),
        pytest.param(np.array([1, -2, 3]), id="int-negative"),
        pytest.param(np.ma.masked_array([1.0, 2.0, 3.0], mask=[0, 1, 0]), id="masked"),
        pytest.param(np.ma.masked_array([1.0, -2.0, 3.0], mask=[0, 1, 0]), id="masked-negative"),
        pytest.param(np.ma.masked_array([1.0, np.nan, 3.0], mask=[0, 1, 0]), id="masked-nan"),
        pytest.param(np.full(FAST_ACCEPT_MAX, 1.7e308), id="sum-overflows-at-the-bound"),
        pytest.param(np.full(FAST_ACCEPT_MAX + 1, 1.7e308), id="sum-overflows-past-the-bound"),
    ])
    def test_views_and_other_dtypes_as_the_per_condition_checks(self, x):
        assert_as_per_condition(x)

    @pytest.mark.parametrize("d", [1, 2, 5, FAST_ACCEPT_MAX, FAST_ACCEPT_MAX + 1])
    def test_nan_at_every_position_is_named(self, d):
        for x in nan_cases(d):
            assert_as_per_condition(x)

    def test_returns_a_native_float64_row_itself(self):
        x = np.array([0.0, 1.5, 2.0, 1e300, 5e-324])
        assert as_vector(x, 5, nonneg=True) is x

    @pytest.mark.parametrize(
        "x, message",
        [
            ([np.nan, -1.0], "malformed input: non-finite component"),  # NaN is named before the sign
            ([-1.0, np.nan], "malformed input: non-finite component"),
            ([1.0, np.inf], "malformed input: non-finite component"),
            ([-np.inf, 1.0], "malformed input: non-finite component"),
            ([2.0, -5e-324], "domain error: negative component"),
            ([[1.0, 2.0]], "expected a 1-D vector, got shape (1, 2)"),
        ],
    )
    def test_names_the_fault(self, x, message):
        assert outcome(per_condition, x, nonneg=True) == message
        with pytest.raises(VectorError) as info:
            as_vector(x, nonneg=True)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "x, message",
        [
            ("ab", "malformed input: <U2 components are not real numbers"),
            (["a", 1.0], "malformed input: <U32 components are not real numbers"),
            (np.array(["1", "2"]), "malformed input: <U1 components are not real numbers"),
            ([1 + 2j, 1.0], "malformed input: complex128 components are not real numbers"),
            ([np.complex128(1 + 2j), 1.0], "malformed input: complex128 components are not real numbers"),
            (np.array([1 + 2j, 1.0]), "malformed input: complex128 components are not real numbers"),
            (np.array([1 + 0j, 1.0]), "malformed input: complex128 components are not real numbers"),
            (np.array([np.complex128(1 + 2j), 1.0], dtype=object),
             "malformed input: object components are not real numbers"),
            ({"a": 1}, "malformed input: object components are not real numbers"),
            ([None, 1.0], "malformed input: object components are not real numbers"),
        ],
    )
    def test_rejects_what_is_not_real_numbers(self, x, message):
        # Numpy would cast complex input to its real part with a ComplexWarning; no warning may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VectorError) as info:
                as_vector(x, nonneg=True)
        assert str(info.value) == message

    @pytest.mark.parametrize("x", [[-0.0, 3.0], [1.7e308, 1.7e308], [5e-324], [],
                                   [True, False], [2, 3], np.array([1, 2], dtype=np.uint8),
                                   np.array([1.5, 2], dtype=np.float32)])
    def test_accepts(self, x):
        # A sum of [1.7e308, 1.7e308] overflows; no component does.
        v = as_vector(x, nonneg=True)
        assert v.tobytes() == np.asarray(x, dtype=np.float64).tobytes() and v.ndim == 1
