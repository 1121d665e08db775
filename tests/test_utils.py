"""Tests for repro.utils (rng, units, validation, float folds)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices.profiles import LatencyProfile
from repro.runtime.faults import DegradationPolicy, build_fault_report
from repro.serving.control import AutoscalerConfig, FleetAutoscaler
from repro.utils.fold import fold_sum
from repro.utils.rng import as_rng, derive_seed, spawn_rng
from repro.utils.units import (
    FP16_BYTES,
    bytes_per_second,
    bytes_to_megabytes,
    megabits_to_bytes,
    ms_to_s,
    s_to_ms,
)
from repro.utils.validation import (
    check_fraction,
    check_monotone_non_decreasing,
    check_non_negative,
    check_positive,
    check_probability_vector,
)


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_as_rng_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_as_rng_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        rng = as_rng(seq)
        assert isinstance(rng, np.random.Generator)

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_rng_children_are_independent(self):
        parent = as_rng(0)
        c1, c2 = spawn_rng(parent, 2)
        assert not np.array_equal(c1.integers(0, 1 << 30, 10), c2.integers(0, 1 << 30, 10))

    def test_spawn_rng_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_rng(as_rng(0), 0)

    def test_spawn_is_reproducible(self):
        a = spawn_rng(as_rng(5), 3)[2].integers(0, 100, 4)
        b = spawn_rng(as_rng(5), 3)[2].integers(0, 100, 4)
        assert np.array_equal(a, b)

    def test_derive_seed_in_range(self):
        seed = derive_seed(as_rng(0))
        assert 0 <= seed < 2**31


class TestUnits:
    def test_fp16_is_two_bytes(self):
        assert FP16_BYTES == 2

    def test_bytes_per_second(self):
        assert bytes_per_second(8) == pytest.approx(1e6)

    def test_bytes_per_second_rejects_negative(self):
        with pytest.raises(ValueError):
            bytes_per_second(-1)

    def test_megabits_to_bytes(self):
        assert megabits_to_bytes(8) == pytest.approx(1e6)

    def test_ms_s_roundtrip(self):
        assert s_to_ms(ms_to_s(123.0)) == pytest.approx(123.0)

    def test_bytes_to_megabytes(self):
        assert bytes_to_megabytes(2_000_000) == pytest.approx(2.0)

    @given(st.floats(min_value=0.001, max_value=1e5))
    def test_bandwidth_conversion_positive(self, mbps):
        assert bytes_per_second(mbps) > 0


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(3, "x") == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0, "x") == 0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_fraction_bounds(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0
        with pytest.raises(ValueError):
            check_fraction(1.5, "f")

    def test_probability_vector_valid(self):
        out = check_probability_vector([0.25, 0.75], "p")
        assert out.sum() == pytest.approx(1.0)

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector([-0.5, 1.5], "p")

    def test_probability_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.3, 0.3], "p")

    def test_probability_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            check_probability_vector([[0.5, 0.5]], "p")

    def test_monotone_accepts_sorted(self):
        check_monotone_non_decreasing([1, 2, 2, 5], "m")

    def test_monotone_rejects_decreasing(self):
        with pytest.raises(ValueError):
            check_monotone_non_decreasing([3, 1], "m")


class TestFoldSum:
    """Float totals round like a ``+=`` loop on every Python.

    Builtin ``sum()`` compensates float rounding from Python 3.12 on; each
    case below uses values where the compensated total differs from the
    left fold, so it fails on 3.12 wherever a site still calls ``sum()``.
    """

    def test_fold_is_left_to_right(self):
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert fold_sum(values) == 0.0
        assert fold_sum(iter(values)) == 0.0
        assert fold_sum([]) == 0.0

    def test_shed_total_is_a_fold(self):
        # Folded, the total is 1.0 and shedding tenant 1 leaves the kept
        # fraction at live_fraction; compensated, the total is one ulp above
        # 1.0 and tenant 2 would be shed too.
        weights = [1.0, 1e-16, 1e-16]
        assert math.fsum(weights) != fold_sum(weights)
        policy = DegradationPolicy(min_live_fraction=1.0)
        assert policy.shed_tenants(weights, live_fraction=1.0 - 2.0**-53) == (1,)

    def test_fault_report_totals_are_folds(self):
        windows = ((0.0, 0.001), (0.0, 1e-19), (0.0, 1e-19))
        degraded = [(hi - lo) * 1000.0 for lo, hi in windows]
        added = [1e16, 1.0, -1e16]
        assert math.fsum(degraded) != fold_sum(degraded)
        tenants = [
            SimpleNamespace(num_lost_attempts=0, num_retried=0, num_abandoned=0,
                            num_shed=0, retry_added_ms=ms)
            for ms in added
        ]
        trace = SimpleNamespace(num_crashes=0, num_leaves=0, num_joins=0, live_at_end=4)
        ctx = SimpleNamespace(trace=trace, degraded_windows_s=windows)
        report = build_fault_report(ctx, tenants)
        assert report.retry_latency_added_ms == 0.0
        assert report.degraded_ms == fold_sum(degraded)

    def test_autoscaler_slow_burn_is_a_fold(self):
        # Window burns 0.1, 0.2, 0.3: the folded mean reaches the threshold
        # (grow), the compensated mean falls one ulp short of it (hold).
        threshold = (0.1 + 0.2 + 0.3) / 3
        assert math.fsum([0.1, 0.2, 0.3]) / 3 < threshold
        config = AutoscalerConfig(
            min_devices=2, max_devices=4, window_s=1.0, target_miss_rate=1.0,
            trigger="burn_rate", burn_threshold=threshold, burn_windows=3,
        )
        scaler = FleetAutoscaler(lambda n, w: None, config)
        for missed in (1, 2, 3):
            tenant = SimpleNamespace(
                slo=object(), deadline_missed=np.arange(10) < missed,
                num_denied=0, num_abandoned=0, num_shed=0, num_completed=10,
            )
            report = SimpleNamespace(tenants=[tenant], faults=None, fleet=None)
            decision = scaler.decide(report, 2)
        assert decision == ("grow", 3)

    def test_profile_volume_latency_is_a_fold(self):
        class Fixed(LatencyProfile):
            def latency_ms(self, layer_name, out_rows):
                return {"a": 1.0, "b": 1e-16, "c": 1e-16}[layer_name]

        rows = [("a", 4), ("b", 4), ("c", 4)]
        assert Fixed().volume_latency_ms(rows) == 1.0 != math.fsum([1.0, 1e-16, 1e-16])
