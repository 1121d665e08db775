"""Tests for bandwidth traces (Fig. 4 / Fig. 12 conditions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices.specs import make_cluster
from repro.network.bandwidth import ConstantTrace, DynamicTrace, WiFiTrace, make_trace


class TestConstantTrace:
    def test_constant_everywhere(self):
        trace = ConstantTrace(200.0)
        assert trace.throughput_mbps(0) == 200.0
        assert trace.throughput_mbps(1e6) == 200.0
        assert trace.mean_mbps() == pytest.approx(200.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ConstantTrace(0.0)

    @pytest.mark.parametrize("mbps", [float("inf"), float("nan")])
    def test_rejects_non_finite_links_everywhere(self, mbps):
        """Regression: an infinite link was accepted and planned as free
        transfer, while the CLI's --bandwidth already rejected it."""
        for build in (ConstantTrace, WiFiTrace, lambda b: make_cluster([("nano", b)])):
            with pytest.raises(ValueError, match="finite"):
                build(mbps)


class TestWiFiTrace:
    def test_stays_close_to_nominal(self):
        trace = WiFiTrace(mbps=200.0, seed=0)
        samples = trace.sample(0, 3600, 10.0)[:, 1]
        assert abs(samples.mean() - 200.0) / 200.0 < 0.05
        assert samples.min() >= 100.0
        assert samples.max() <= 230.0

    def test_fluctuates(self):
        trace = WiFiTrace(mbps=100.0, seed=1)
        samples = trace.sample(0, 600, 10.0)[:, 1]
        assert samples.std() > 0.0

    def test_deterministic_per_seed(self):
        a = WiFiTrace(mbps=50.0, seed=7).sample(0, 600, 10.0)
        b = WiFiTrace(mbps=50.0, seed=7).sample(0, 600, 10.0)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = WiFiTrace(mbps=50.0, seed=1).sample(0, 600, 10.0)[:, 1]
        b = WiFiTrace(mbps=50.0, seed=2).sample(0, 600, 10.0)[:, 1]
        assert not np.array_equal(a, b)

    def test_clamps_time_outside_duration(self):
        trace = WiFiTrace(mbps=50.0, duration_seconds=100.0, seed=0)
        assert trace.throughput_mbps(1e9) > 0

    @given(mbps=st.sampled_from([50.0, 100.0, 200.0, 300.0]), t=st.floats(0, 3600))
    def test_always_positive(self, mbps, t):
        trace = WiFiTrace(mbps=mbps, seed=3)
        assert trace.throughput_mbps(t) > 0


class TestDynamicTrace:
    def test_bounded_between_low_and_high(self):
        trace = DynamicTrace(low_mbps=40, high_mbps=100, seed=0)
        samples = trace.sample(0, 3600, 30.0)[:, 1]
        assert samples.min() >= 40 - 1e-9
        assert samples.max() <= 100 + 1e-9

    def test_high_variability(self):
        """The dynamic traces swing far more than the shaped WiFi traces."""
        dynamic = DynamicTrace(seed=0).sample(0, 3600, 60.0)[:, 1]
        wifi = WiFiTrace(mbps=70.0, seed=0).sample(0, 3600, 60.0)[:, 1]
        assert dynamic.std() > 3 * wifi.std()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            DynamicTrace(low_mbps=100, high_mbps=50)

    def test_nominal_is_mean(self):
        trace = DynamicTrace(seed=4)
        assert 40 <= trace.nominal_mbps <= 100


class TestMakeTrace:
    def test_kinds(self):
        assert isinstance(make_trace(100, "constant"), ConstantTrace)
        assert isinstance(make_trace(100, "wifi"), WiFiTrace)
        assert isinstance(make_trace(70, "dynamic"), DynamicTrace)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_trace(100, "satellite")

    def test_dynamic_band_centred_on_mbps(self):
        trace = make_trace(70, "dynamic", seed=0)
        assert trace.low_mbps == pytest.approx(40.0)
        assert trace.high_mbps == pytest.approx(100.0)
