"""Shared utilities: RNG handling, units, validation helpers, float folds."""

from repro.utils.fold import fold_sum
from repro.utils.rng import as_rng, spawn_rng
from repro.utils.units import (
    MBPS,
    bytes_per_second,
    megabits_to_bytes,
    ms_to_s,
    s_to_ms,
)
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
)

__all__ = [
    "fold_sum",
    "as_rng",
    "spawn_rng",
    "MBPS",
    "bytes_per_second",
    "megabits_to_bytes",
    "ms_to_s",
    "s_to_ms",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability_vector",
]
