"""Small argument-validation helpers with consistent error messages.

Model constructors across the library take physical quantities whose sign
and range matter; these helpers fail fast with messages that name the
offending parameter, rather than letting a negative conductance surface as
a singular matrix three layers down.
"""

from __future__ import annotations

import math

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Return ``value`` if >= 0 and finite, else raise ``ValueError``."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate a value in [0, 1] (or (0, 1) when ``inclusive=False``)."""
    value = float(value)
    if inclusive:
        ok = 0.0 <= value <= 1.0
    else:
        ok = 0.0 < value < 1.0
    if not ok:
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ValueError(f"{name} must lie in {bounds}, got {value!r}")
    return value


def check_probability_array(name: str, array: np.ndarray) -> np.ndarray:
    """Validate that every entry of ``array`` lies in [0, 1]."""
    array = np.asarray(array, dtype=float)
    if np.isnan(array).any():
        raise ValueError(f"{name} must not contain NaN")
    if array.size and (array.min() < 0.0 or array.max() > 1.0):
        raise ValueError(f"all entries of {name} must lie in [0, 1]")
    return array


def check_index(name: str, index: int, size: int) -> int:
    """Validate ``0 <= index < size`` and return the index as int."""
    index = int(index)
    if not 0 <= index < size:
        raise ValueError(f"{name} must lie in [0, {size}), got {index}")
    return index
