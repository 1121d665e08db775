"""Small validation helpers shared by configuration dataclasses."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN is rejected)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_probability_vector(values: Sequence[float], name: str) -> np.ndarray:
    """Validate that ``values`` is a non-negative vector summing to 1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if not np.isclose(total, 1.0):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return arr


def check_monotone_non_decreasing(values: Sequence[float], name: str) -> np.ndarray:
    """Validate that ``values`` is sorted in non-decreasing order."""
    arr = np.asarray(values, dtype=float)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be non-decreasing, got {list(values)}")
    return arr


__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_probability_vector",
    "check_monotone_non_decreasing",
]
