"""Input coercion shared by the numeric modules."""

from __future__ import annotations

import operator
from math import inf

import numpy as np

from .errors import ConfigError, VectorError

# The array kinds that are real numbers: bool, signed and unsigned integer, float. numpy would cast
# a complex array to its real part, and an object array one element at a time, a complex scalar
# again to its real part; text and times are not numbers.
_REAL_KINDS = frozenset("biuf")
_F64 = np.dtype(np.float64)
# The longest vector that as_vector checks in Python floats rather than numpy reductions. A list
# pass costs per component and numpy's reductions per call: as_vector took 0.37 of its numpy
# time at 5 components, 0.57 at 16, 0.85 at 32, 1.1 at 48 and 1.4 at 64 (sweep in CHANGES.md).
FAST_ACCEPT_MAX = 32


def check_int(value, name: str, minimum: int) -> None:
    """Raise ConfigError unless ``value`` is an integer >= ``minimum``: numpy integers pass; 2.0 and
    booleans fail (``operator.index`` takes Python's ``True`` as 1, numpy's ``np.True_`` not at all)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def as_vector(x, dim: int | None = None, nonneg: bool = False) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array, validating shape and domain.

    Raises VectorError for input that numpy does not read as real numbers
    (text, complex numbers, objects, ragged sequences), non-finite components, a
    dimension mismatch against ``dim``, or (when ``nonneg``) any negative
    component. An ndarray, the engine's input, is checked by its dtype alone.

    A vector as the engine passes it (an exact ndarray of native float64, 1-D,
    of 1 to ``FAST_ACCEPT_MAX`` components, with ``nonneg`` and no ``dim`` or
    a matching one) is accepted by Python's ``min``, ``max`` and ``sum`` over its
    ``tolist()`` and returned itself, as ``np.asarray`` would return it: at
    that size numpy's per-call cost outweighs the work of its reductions.
    Whatever those do not accept falls through to the numpy checks below,
    which alone name a fault.
    """
    if (nonneg and type(x) is np.ndarray and x.ndim == 1 and 0 < len(x) <= FAST_ACCEPT_MAX
            and (dim is None or len(x) == dim) and x.dtype == _F64):
        # Not a subclass: a MaskedArray's tolist() holds None. NaN anywhere makes the sum NaN,
        # which the min and max may miss by its position; finite components that overflow sum
        # to inf and pass, as they pass below.
        c = x.tolist()
        s = sum(c)
        if s == s and min(c) >= 0.0 and max(c) < inf:
            return x
    if not isinstance(x, np.ndarray):
        try:
            x = np.asarray(x)  # numpy's own dtype, so that complex and text are seen before any cast
        except (TypeError, ValueError) as exc:  # a ragged sequence, say
            raise VectorError(f"malformed input: {exc}") from None
    if x.dtype.kind not in _REAL_KINDS:
        raise VectorError(f"malformed input: {x.dtype} components are not real numbers")
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise VectorError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise VectorError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    # One test for the common case: NaN or -inf fails the minimum, +inf the
    # maximum. The checks below then run only to name the fault.
    if nonneg and v.size and np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) < np.inf:
        return v
    if not np.isfinite(v).all():
        raise VectorError("malformed input: non-finite component")
    if nonneg and (v < 0).any():
        raise VectorError("domain error: negative component")
    return v
