"""Float totals with one rounding on every supported Python."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from ``0.0``: the rounding of a ``+=`` loop.

    Builtin ``sum()`` compensates float rounding from Python 3.12 on, so its
    total of the same floats differs by version (``1e16, 1.0, -1e16`` gives
    ``0.0`` before 3.12 and ``1.0`` after).  Totals that are simulated,
    reported or compared with a threshold use this fold, which also matches
    the sequential ``+=`` accumulations of the NumPy paths.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def fold_array(values: np.ndarray, start: float = 0.0) -> float:
    """:func:`fold_sum` of a float array, from ``start``, in one C pass (a
    cumulative sum adds left to right)."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])
