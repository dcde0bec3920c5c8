"""Input validation helpers.

All public entry points of the library validate their arguments through these
helpers so that error messages are uniform and informative.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "ensure_1d_float_array",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_integer",
    "ensure_in",
]

_FLOAT_DTYPES = (np.float32, np.float64)


def ensure_1d_float_array(data, name: str = "data", copy: bool = False) -> np.ndarray:
    """Return ``data`` as a contiguous 1-D float32/float64 numpy array.

    Multi-dimensional arrays are flattened (C order); lists are converted to
    float64.  Integer or complex inputs are rejected because the compressors in
    this library are defined for floating-point scientific data only.
    """
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        if np.issubdtype(arr.dtype, np.integer) or arr.dtype == object:
            raise TypeError(
                f"{name} must be a float32/float64 array, got dtype {arr.dtype!r}"
            )
        if np.issubdtype(arr.dtype, np.complexfloating):
            raise TypeError(f"{name} must be real-valued, got complex dtype {arr.dtype!r}")
        arr = arr.astype(np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    arr = np.ascontiguousarray(arr)
    if copy:
        arr = arr.copy()
    return arr


def ensure_positive(value, name: str = "value") -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    val = float(value)
    if not np.isfinite(val) or val <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return val


def ensure_non_negative(value, name: str = "value") -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    val = float(value)
    if not np.isfinite(val) or val < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return val


def ensure_integer(value, name: str = "value", minimum: Optional[int] = None) -> int:
    """Validate that ``value`` is an integer (a Python or numpy one, never a
    bool or a whole float), at least ``minimum`` if given; return it as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def ensure_in(value, allowed: Iterable, name: str = "value"):
    """Validate that ``value`` is one of ``allowed`` and return it unchanged."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value
