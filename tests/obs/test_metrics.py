"""MetricsRegistry unit tests: determinism, Prometheus exposition, recording."""

from __future__ import annotations

import json

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry


def populated_registry(observe_order):
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "help", ("tenant",))
    gauge = registry.gauge("repro_test_depth", "", ("tenant",))
    hist = registry.histogram("repro_test_ms", "", ("tenant",), buckets=(5.0, 50.0))
    for tenant, value in observe_order:
        counter.inc(1, tenant=tenant)
        gauge.set(value, tenant=tenant)
        hist.observe(value, tenant=tenant)
    return registry


class TestDeterminism:
    def test_snapshot_independent_of_observation_order(self):
        forward = [("a", 3.0), ("b", 60.0), ("a", 7.0)]
        # Same multiset of observations per series, different interleaving.
        backward = [("b", 60.0), ("a", 3.0), ("a", 7.0)]
        assert (
            populated_registry(forward).snapshot()
            == populated_registry(backward).snapshot()
        )

    def test_snapshot_is_json_serialisable(self):
        snap = populated_registry([("a", 3.0)]).snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "h", ("tenant",))
        second = registry.counter("repro_x_total", "h", ("tenant",))
        assert first is second

    def test_conflicting_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_counters_reject_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_x_total").inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "", ("tenant",))
        with pytest.raises(ValueError):
            counter.inc(1, nottenant="a")


class TestHistogram:
    def test_fixed_buckets_place_values(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h_ms", "", (), buckets=(5.0, 50.0))
        for value in (1.0, 5.0, 6.0, 999.0):
            hist.observe(value)
        (entry,) = registry.snapshot()["repro_h_ms"]["series"].values()
        # <=5, <=50, +Inf — boundary value 5.0 lands in its own bucket.
        assert entry["counts"] == [2, 1, 1]
        assert entry["count"] == 4 and entry["sum"] == 1011.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_h_ms", buckets=(5.0, 5.0))

    def test_default_buckets_are_the_documented_ladder(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] == 5.0
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] == 10000.0


class TestPrometheusText:
    def test_exposition_shape(self):
        text = populated_registry([("a", 3.0), ("b", 60.0)]).to_prometheus()
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{tenant="a"} 1' in text
        assert 'repro_test_ms_bucket{tenant="b",le="+Inf"} 1' in text
        assert 'repro_test_ms_count{tenant="b"} 1' in text
        assert text.endswith("\n")

    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h_ms", "", (), buckets=(5.0, 50.0))
        for value in (1.0, 2.0, 10.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'repro_h_ms_bucket{le="5"} 2' in text
        assert 'repro_h_ms_bucket{le="50"} 3' in text
        assert 'repro_h_ms_bucket{le="+Inf"} 3' in text


class TestObserveMany:
    """Bulk observation is bit-identical to a scalar ``observe`` loop."""

    VALUES = (1.0, 5.0, 6.0, 999.0, 0.1 + 0.2, 49.999999999999)

    def test_matches_scalar_loop_exactly(self):
        scalar = MetricsRegistry().histogram("h", buckets=(5.0, 50.0))
        bulk = MetricsRegistry().histogram("h", buckets=(5.0, 50.0))
        for value in self.VALUES:
            scalar.observe(value)
        bulk.observe_many(list(self.VALUES))
        assert scalar.series[()] == bulk.series[()]

    def test_accepts_numpy_arrays(self):
        import numpy as np

        scalar = MetricsRegistry().histogram("h", label_names=("tenant",), buckets=(5.0, 50.0))
        bulk = MetricsRegistry().histogram("h", label_names=("tenant",), buckets=(5.0, 50.0))
        values = np.array(self.VALUES)
        for value in values:
            scalar.observe(float(value), tenant="a")
        bulk.observe_many(values, tenant="a")
        assert scalar.series[("a",)] == bulk.series[("a",)]

    def test_nan_lands_in_the_inf_bucket_as_in_observe(self):
        """Regression: the bulk path's bisect placed a NaN in the first bucket."""
        scalar = MetricsRegistry().histogram("h", buckets=(5.0, 50.0))
        bulk = MetricsRegistry().histogram("h", buckets=(5.0, 50.0))
        for value in (1.0, float("nan")):
            scalar.observe(value)
        bulk.observe_many([1.0, float("nan")])
        assert bulk.series[()][0] == scalar.series[()][0] == [1, 0, 1]

    def test_empty_batch_creates_no_series(self):
        hist = MetricsRegistry().histogram("h", buckets=(5.0,))
        hist.observe_many([])
        assert hist.series == {}

    def test_batches_accumulate(self):
        hist = MetricsRegistry().histogram("h", buckets=(5.0,))
        hist.observe_many([1.0, 2.0])
        hist.observe_many([10.0])
        counts, total, n = hist.series[()]
        assert counts == [2, 1] and n == 3 and total == 1.0 + 2.0 + 10.0

    def test_label_mismatch_raises(self):
        hist = MetricsRegistry().histogram("h", label_names=("tenant",), buckets=(5.0,))
        with pytest.raises(ValueError):
            hist.observe_many([1.0], wrong="x")


class TestQuantile:
    """Histogram quantiles are numpy-exact when data sits on bucket bounds.

    The estimator reconstructs each observation at its bucket's upper
    bound, then interpolates exactly like ``np.percentile`` (linear
    method).  When every observation *is* a bucket bound the
    reconstruction is lossless, so the estimate must match numpy bit for
    bit — both lerp branches included.
    """

    BUCKETS = (5.0, 10.0, 20.0, 50.0)
    VALUES = [5.0, 5.0, 10.0, 20.0, 20.0, 20.0, 50.0]

    def _hist(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_ms", "", (), buckets=self.BUCKETS)
        for value in self.VALUES:
            hist.observe(value)
        return registry, hist

    @pytest.mark.parametrize("q", [0, 10, 25, 37.5, 50, 62.5, 75, 90, 95, 99, 100])
    def test_matches_numpy_percentile_exactly(self, q):
        import numpy as np

        _, hist = self._hist()
        expected = float(np.percentile(np.asarray(self.VALUES), q))
        # Bit-exact, not approx: repr equality is the parity-contract form.
        assert repr(hist.quantile(q)) == repr(expected)

    def test_both_lerp_branches_are_numpy_exact(self):
        import numpy as np

        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        # n=3: q=30 -> h=0.6 (t >= 0.5 branch), q=20 -> h=0.4 (t < 0.5).
        for q in (20, 30):
            assert repr(hist.quantile(q)) == repr(
                float(np.percentile([1.0, 2.0, 4.0], q))
            )

    def test_overflow_observations_clamp_to_last_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(5.0, 10.0))
        hist.observe(999.0)
        assert hist.quantile(50) == 10.0
        assert hist.quantile(100) == 10.0

    def test_labelled_series_and_registry_lookup(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_ms", "", ("tenant",), buckets=(5.0, 10.0))
        hist.observe(5.0, tenant="a")
        hist.observe(10.0, tenant="b")
        assert registry.quantile("repro_q_ms", 50, tenant="a") == 5.0
        assert registry.quantile("repro_q_ms", 50, tenant="b") == 10.0

    def test_errors(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_ms", "", (), buckets=(5.0,))
        with pytest.raises(KeyError):
            hist.quantile(50)  # no observations yet
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(-1)
        with pytest.raises(ValueError):
            hist.quantile(101)
        with pytest.raises(KeyError):
            registry.quantile("repro_nope_ms", 50)
        registry.counter("repro_c_total").inc(1)
        with pytest.raises(KeyError):
            registry.quantile("repro_c_total", 50)
