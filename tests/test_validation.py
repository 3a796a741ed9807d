"""Input coercion: the one-test acceptance of as_vector against its per-condition checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synalloc import VectorError
from synalloc.validation import as_vector


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


class TestAsVector:
    @given(hnp.arrays(np.float64, st.integers(0, 9), elements=edge_floats), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_accepts_exactly_what_the_per_condition_checks_accept(self, v, nonneg):
        assert outcome(as_vector, v, nonneg=nonneg) == outcome(per_condition, v, nonneg=nonneg)
        assert outcome(as_vector, v, len(v), nonneg) == outcome(per_condition, v, len(v), nonneg)

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
