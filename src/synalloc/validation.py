"""Input coercion shared by the numeric modules."""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError, VectorError


def check_int(value, name: str, minimum: int) -> None:
    """Raise ConfigError unless ``value`` is an integer >= ``minimum``: numpy integers pass, 2.0 fails."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def as_vector(x, dim: int | None = None, nonneg: bool = False) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array, validating shape and domain.

    Raises VectorError for non-finite components, a dimension mismatch
    against ``dim``, or (when ``nonneg``) any negative component.
    """
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
