"""Property tests for the arrival processes and the ``traffic:`` grammar."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving.traffic import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
    parse_traffic_spec,
    resolve_traffic,
)

ALL_PROCESSES = [
    PoissonArrivals(rate_rps=5.0, seed=3),
    MMPPArrivals(low_rps=1.0, high_rps=20.0, dwell_low_s=10.0, dwell_high_s=4.0, seed=3),
    DiurnalArrivals(base_rps=1.0, peak_rps=10.0, period_s=120.0, seed=3),
    TraceArrivals(offsets_s=(0.1, 0.5, 0.5, 1.2, 7.0)),
]


class TestDeterminism:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_repeated_calls_are_identical(self, process):
        a = process.arrival_times(30.0)
        b = process.arrival_times(30.0)
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.2, 50.0))
    def test_same_seed_same_arrivals(self, seed, rate):
        a = PoissonArrivals(rate_rps=rate, seed=seed).arrival_times(10.0)
        b = PoissonArrivals(rate_rps=rate, seed=seed).arrival_times(10.0)
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**31 - 1))
    def test_mmpp_same_seed_same_arrivals(self, seed):
        make = lambda: MMPPArrivals(low_rps=0.5, high_rps=15.0, seed=seed)  # noqa: E731
        assert np.array_equal(make().arrival_times(20.0), make().arrival_times(20.0))

    @given(start=st.floats(0.0, 1e4))
    def test_start_offset_shifts_without_resampling(self, start):
        process = PoissonArrivals(rate_rps=5.0, seed=1)
        base = process.arrival_times(10.0, start_s=0.0)
        shifted = process.arrival_times(10.0, start_s=start)
        assert np.allclose(shifted - start, base)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_arrivals_sorted_and_inside_window(self, process):
        times = process.arrival_times(25.0, start_s=100.0)
        assert np.all(np.diff(times) >= 0)
        if times.size:
            assert times[0] >= 100.0
            assert times[-1] < 125.0


class TestEmpiricalRates:
    @pytest.mark.parametrize("rate", [1.0, 5.0, 20.0])
    def test_poisson_rate_within_tolerance(self, rate):
        # Long window (expected count >= 500) and a fixed seed: the empirical
        # rate must sit within 15% of the configured one.
        duration = max(500.0 / rate, 50.0)
        times = PoissonArrivals(rate_rps=rate, seed=7).arrival_times(duration)
        assert times.size / duration == pytest.approx(rate, rel=0.15)

    def test_mmpp_mean_rate_within_tolerance(self):
        process = MMPPArrivals(low_rps=1.0, high_rps=20.0, dwell_low_s=10.0, dwell_high_s=10.0, seed=11)
        duration = 2000.0
        times = process.arrival_times(duration)
        assert times.size / duration == pytest.approx(process.mean_rate_rps, rel=0.2)

    def test_diurnal_mean_rate_over_whole_periods(self):
        process = DiurnalArrivals(base_rps=2.0, peak_rps=10.0, period_s=100.0, seed=13)
        duration = 2000.0  # 20 whole periods
        times = process.arrival_times(duration)
        assert times.size / duration == pytest.approx(process.mean_rate_rps, rel=0.2)

    def test_diurnal_peaks_mid_period(self):
        process = DiurnalArrivals(base_rps=0.5, peak_rps=20.0, period_s=100.0, seed=13)
        times = process.arrival_times(1000.0)
        phase = np.mod(times, 100.0)
        mid = ((phase > 25) & (phase < 75)).sum()
        edges = times.size - mid
        assert mid > 2 * edges  # the raised-cosine mass sits mid-period

    def test_mmpp_is_burstier_than_poisson(self):
        # Same mean rate; the MMPP inter-arrival CV must exceed Poisson's ~1.
        mmpp = MMPPArrivals(low_rps=0.2, high_rps=30.0, dwell_low_s=20.0, dwell_high_s=2.0, seed=5)
        poisson = PoissonArrivals(rate_rps=mmpp.mean_rate_rps, seed=5)
        gaps_m = np.diff(mmpp.arrival_times(2000.0))
        gaps_p = np.diff(poisson.arrival_times(2000.0))
        cv = lambda g: g.std() / g.mean()  # noqa: E731
        assert cv(gaps_m) > 1.3 * cv(gaps_p)


class TestGrammar:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_spec_round_trip(self, process):
        rebuilt = parse_traffic_spec(process.spec)
        assert rebuilt == process
        assert rebuilt.spec == process.spec
        assert np.array_equal(rebuilt.arrival_times(15.0), process.arrival_times(15.0))

    def test_kind_as_key_and_bursty_alias(self):
        a = parse_traffic_spec("traffic:kind=mmpp,low=1,high=5")
        b = parse_traffic_spec("traffic:bursty,low=1,high=5")
        assert a == b

    def test_resolve_passes_processes_through(self):
        process = PoissonArrivals(rate_rps=2.0)
        assert resolve_traffic(process) is process
        assert resolve_traffic("traffic:poisson,rate=2") == process

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("poisson,rate=5", "must start with"),
            ("traffic:", "empty traffic spec"),
            ("traffic:warp,rate=5", "unknown traffic kind"),
            ("traffic:poisson,ratio=5", "unknown traffic option"),
            ("traffic:poisson,rate=fast", "not a number"),
            ("traffic:poisson,seed=1.5", "not an integer"),
            ("traffic:poisson,rate", "expected key=value"),
            ("traffic:poisson,rate=1,rate=2", "duplicate traffic option"),
            ("traffic:rate=5", "names no kind"),
            ("traffic:trace", "requires times"),
            ("traffic:trace,times=1;zz", "non-number"),
            ("traffic:trace,times=3;1", "non-decreasing"),
            ("traffic:poisson,rate=0", "rate_rps must be > 0"),
            ("traffic:mmpp,low=5,high=2", "high_rps must exceed"),
            ("traffic:diurnal,base=5,peak=2", "peak_rps must be positive and >="),
            # Regression: non-finite floats used to overflow or stall at run time.
            ("traffic:poisson,rate=inf", "must be finite"),
            ("traffic:poisson,rate=nan", "must be finite"),
            ("traffic:mmpp,dwell_low=nan", "must be finite"),
            ("traffic:diurnal,period=nan", "must be finite"),
            ("traffic:trace,times=inf", "must all be finite"),
            ("traffic:trace,times=0.5;nan", "must all be finite"),
        ],
    )
    def test_malformed_specs_raise_with_useful_message(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_traffic_spec(spec)


class TestTraceEdgeCases:
    """Trace replays with unsorted/duplicate timestamps."""

    def test_unsorted_offsets_rejected_everywhere(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceArrivals(offsets_s=(1.0, 0.5, 2.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            parse_traffic_spec("traffic:trace,times=1;0.5;2")
        with pytest.raises(ValueError, match=">= 0"):
            TraceArrivals(offsets_s=(-0.1, 0.5))

    def test_duplicate_offsets_are_all_replayed(self):
        trace = TraceArrivals(offsets_s=(0.5, 0.5, 0.5, 1.0, 1.0))
        times = trace.arrival_times(5.0, start_s=10.0)
        assert times.tolist() == [10.5, 10.5, 10.5, 11.0, 11.0]
        # The spec grammar round-trips duplicates untouched.
        assert parse_traffic_spec(trace.spec) == trace

    def test_duplicate_arrivals_are_all_served(self):
        """Tied timestamps queue behind each other and each completes."""
        from repro.devices.specs import make_cluster
        from repro.network.topology import NetworkModel
        from repro.nn import model_zoo
        from repro.runtime.batch import BatchPlanEvaluator
        from repro.runtime.evaluator import PlanEvaluator
        from repro.runtime.plan import DistributionPlan
        from repro.serving import ServingSimulator, TenantSpec, run_with_parity

        model = model_zoo.small_vgg(32)
        devices = make_cluster([("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenant = TenantSpec(
            "dup",
            DistributionPlan.single_device(model, devices, 0),
            traffic=TraceArrivals(offsets_s=(0.2, 0.2, 0.2, 0.4, 0.4)),
        )
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            [tenant],
            duration_s=1.0,
        )
        dup = report.tenant("dup")
        assert dup.num_arrivals == 5
        assert dup.num_completed == 5
        # The tied arrivals serialise on the tenant's service slot.
        assert np.all(np.diff(dup.start_s) >= 0)
        assert dup.start_s[1] > dup.arrival_s[1]
        # Admission control sees the duplicates as simultaneous queue growth.
        capped = TenantSpec(
            "capped",
            DistributionPlan.single_device(model, devices, 0),
            traffic=TraceArrivals(offsets_s=(0.2, 0.2, 0.2, 0.2)),
            queue_capacity=2,
        )
        capped_report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
            [capped], duration_s=1.0
        )
        t = capped_report.tenant("capped")
        assert t.num_arrivals == 4
        assert t.num_rejected > 0
        assert t.num_completed == t.num_admitted

    def test_trace_beyond_duration_is_dropped(self):
        trace = TraceArrivals(offsets_s=(0.1, 0.2, 9.9))
        assert trace.arrival_times(1.0).size == 2


class TestZeroRateSegments:
    """``traffic:`` specs whose rate profile touches zero."""

    def test_mmpp_zero_low_rate_is_silent_between_bursts(self):
        process = parse_traffic_spec(
            "traffic:mmpp,low=0,high=40,dwell_low=5,dwell_high=1,seed=3"
        )
        assert process.low_rps == 0.0
        times = process.arrival_times(200.0)
        assert times.size > 0
        # With dwell_low >> dwell_high and a silent quiet state, arrivals
        # cluster: long inter-burst gaps must dominate the time axis.
        gaps = np.diff(times)
        assert gaps.max() > 2.0
        assert process.mean_rate_rps == pytest.approx(40.0 / 6.0)
        # Round-trip through the grammar preserves the zero rate.
        assert parse_traffic_spec(process.spec) == process

    def test_diurnal_zero_base_rate_troughs_empty(self):
        process = parse_traffic_spec("traffic:diurnal,base=0,peak=20,period=100,seed=5")
        assert process.rate_at(0.0) == 0.0
        times = process.arrival_times(1000.0)
        assert times.size > 0
        phase = np.mod(times, 100.0)
        # The trough (rate -> 0) must be nearly empty relative to the peak.
        trough = ((phase < 5) | (phase > 95)).sum()
        peak = ((phase > 45) & (phase < 55)).sum()
        assert peak > 5 * max(trough, 1)

    def test_zero_rate_tenant_completes_cleanly(self):
        """An MMPP tenant whose quiet state is silent still simulates."""
        from repro.devices.specs import make_cluster
        from repro.network.topology import NetworkModel
        from repro.nn import model_zoo
        from repro.runtime.batch import BatchPlanEvaluator
        from repro.runtime.evaluator import PlanEvaluator
        from repro.runtime.plan import DistributionPlan
        from repro.serving import TenantSpec, run_with_parity

        model = model_zoo.small_vgg(32)
        devices = make_cluster([("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenant = TenantSpec(
            "quiet",
            DistributionPlan.single_device(model, devices, 0),
            traffic=parse_traffic_spec(
                "traffic:mmpp,low=0,high=30,dwell_low=2,dwell_high=0.5,seed=9"
            ),
        )
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            [tenant],
            duration_s=10.0,
        )
        quiet = report.tenant("quiet")
        assert quiet.num_completed == quiet.num_arrivals > 0

    def test_all_silent_process_yields_no_arrivals(self):
        process = MMPPArrivals(low_rps=0.0, high_rps=5.0, dwell_low_s=1e6, dwell_high_s=1.0, seed=0)
        assert process.arrival_times(10.0).size == 0
