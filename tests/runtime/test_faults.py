"""Unit tests for the fleet-churn subsystem: grammar, policies, resolver.

Covers the ``churn:`` spec grammar's validation surface (unknown device
ids, out-of-order timestamps, emptying the fleet), RetryPolicy /
DegradationPolicy construction-time validation, and the pure decision
pieces (liveness queries, open-interval crash semantics, failover
replanning, the retry-chain resolver) that the serving loops share.
"""

from __future__ import annotations

import pytest

from repro.devices.specs import make_cluster
from repro.nn import model_zoo
from repro.runtime import faults
from repro.runtime.faults import (
    ChurnSpec,
    DegradationPolicy,
    FaultEvent,
    FaultTrace,
    PlanDegrader,
    RetryPolicy,
    degrade_plan,
    parse_churn_spec,
    plan_devices,
    resolve_churn,
    resolve_faulted_request,
)
from repro.runtime.plan import DistributionPlan


def _trace(*items, n=4):
    return FaultTrace(
        events=tuple(FaultEvent(t_ms=t, kind=k, device=d) for k, d, t in items),
        num_devices=n,
    )


class TestChurnGrammar:
    def test_explicit_events_round_trip(self):
        spec = parse_churn_spec("churn:events=crash:0@120;leave:1@400;join:0@900")
        trace = spec.resolve(4)
        assert [e.label for e in trace.events] == [
            "crash:0@120", "leave:1@400", "join:0@900",
        ]
        rebuilt = resolve_churn(trace.spec, 4)
        assert rebuilt == trace

    def test_seeded_form_is_deterministic(self):
        a = resolve_churn("churn:crashes=2,leaves=1,joins=1,seed=7", 8)
        b = resolve_churn("churn:crashes=2,leaves=1,joins=1,seed=7", 8)
        assert a == b
        c = resolve_churn("churn:crashes=2,leaves=1,joins=1,seed=8", 8)
        assert a != c
        # Seeded events land inside [start_ms, start_ms + window_ms).
        assert all(1000.0 <= e.t_ms < 11000.0 for e in a.events)

    def test_unknown_device_id_rejected(self):
        with pytest.raises(ValueError, match="unknown device id 9"):
            resolve_churn("churn:events=crash:9@100", 4)

    def test_out_of_order_timestamps_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            resolve_churn("churn:events=crash:0@500;leave:1@100", 4)

    def test_crash_of_last_remaining_device_rejected(self):
        with pytest.raises(ValueError, match="last remaining"):
            resolve_churn("churn:events=crash:0@100;crash:1@200", 2)

    def test_removing_dead_device_rejected(self):
        with pytest.raises(ValueError, match="not live"):
            resolve_churn("churn:events=crash:0@100;leave:0@200", 4)

    def test_joining_live_device_rejected(self):
        with pytest.raises(ValueError, match="already live"):
            resolve_churn("churn:events=join:0@100", 4)

    def test_prefix_and_shape_errors(self):
        with pytest.raises(ValueError, match="must start with 'churn:'"):
            parse_churn_spec("gen:n=4")
        with pytest.raises(ValueError, match="empty churn spec"):
            parse_churn_spec("churn:")
        with pytest.raises(ValueError, match="key=value"):
            parse_churn_spec("churn:crashes")
        with pytest.raises(ValueError, match="duplicate churn option"):
            parse_churn_spec("churn:crashes=1,crashes=2")
        with pytest.raises(ValueError, match="unknown churn option"):
            parse_churn_spec("churn:frobs=2")
        with pytest.raises(ValueError, match="mutually exclusive"):
            parse_churn_spec("churn:events=crash:0@1,seed=3")
        with pytest.raises(ValueError, match="expected <kind>:<device>@<t_ms>"):
            parse_churn_spec("churn:events=crash@100")
        with pytest.raises(ValueError, match="unknown churn event kind"):
            parse_churn_spec("churn:events=explode:0@100")
        with pytest.raises(ValueError, match="is not an integer"):
            parse_churn_spec("churn:events=crash:x@100")
        with pytest.raises(ValueError, match="is not a number"):
            parse_churn_spec("churn:events=crash:0@soon")

    @pytest.mark.parametrize(
        "spec",
        [
            "churn:crashes=1,window_ms=inf",
            "churn:crashes=1,window_ms=nan",
            "churn:crashes=1,start_ms=nan",
            "churn:events=crash:1@nan",
            "churn:events=crash:1@inf",
        ],
    )
    def test_non_finite_floats_rejected(self, spec):
        """Regression: non-finite times used to overflow at resolve time or
        land in the fault trace."""
        with pytest.raises(ValueError, match="must be finite"):
            parse_churn_spec(spec)

    def test_trace_fleet_size_mismatch_rejected(self):
        trace = _trace(("crash", 0, 100.0), n=4)
        with pytest.raises(ValueError, match="rebuild the trace"):
            resolve_churn(trace, 8)

    def test_seeded_generation_drops_infeasible_events(self):
        # 5 crashes on a 2-device fleet: at most one can land.
        trace = resolve_churn("churn:crashes=5,seed=1", 2)
        assert trace.num_crashes == 1
        assert trace.live_at_end == 1


class TestFaultTraceQueries:
    def test_live_indices_apply_events_at_their_tick(self):
        trace = _trace(("crash", 2, 100.0), ("join", 2, 300.0))
        assert trace.live_indices(99.9) == (0, 1, 2, 3)
        assert trace.live_indices(100.0) == (0, 1, 3)
        assert trace.live_indices(300.0) == (0, 1, 2, 3)
        assert trace.live_fraction(200.0) == 0.75

    def test_crash_interval_is_open(self):
        trace = _trace(("crash", 1, 100.0))
        dead = frozenset({1})
        # Strictly inside kills; at either endpoint does not.
        assert trace.first_crash_touching(dead, 50.0, 150.0) is not None
        assert trace.first_crash_touching(dead, 100.0, 150.0) is None
        assert trace.first_crash_touching(dead, 50.0, 100.0) is None
        assert trace.first_crash_touching(frozenset({0}), 50.0, 150.0) is None

    def test_segments_and_next_event(self):
        trace = _trace(("crash", 0, 100.0), ("join", 0, 300.0))
        assert trace.segments(0.0, 400.0) == [
            (0.0, 100.0, (0, 1, 2, 3)),
            (100.0, 300.0, (1, 2, 3)),
            (300.0, 400.0, (0, 1, 2, 3)),
        ]
        assert trace.next_event_after(0.0) == 100.0
        assert trace.next_event_after(100.0) == 300.0
        assert trace.next_event_after(300.0) is None


class TestPolicyValidation:
    def test_retry_rejects_zero_max_attempts(self):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            RetryPolicy(max_attempts=0)

    def test_retry_rejects_negative_backoff(self):
        with pytest.raises(ValueError, match="backoff_ms must be >= 0"):
            RetryPolicy(backoff_ms=-1.0)

    def test_retry_rejects_timeout_below_backoff_base(self):
        with pytest.raises(ValueError, match="timeout_ms must be >= backoff_ms"):
            RetryPolicy(backoff_ms=50.0, timeout_ms=20.0)

    def test_retry_rejects_other_bad_fields(self):
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter_ms"):
            RetryPolicy(jitter_ms=-0.1)
        with pytest.raises(ValueError, match="seed"):
            RetryPolicy(seed=-1)

    def test_retry_delay_is_counter_deterministic(self):
        retry = RetryPolicy(backoff_ms=10.0, multiplier=2.0, jitter_ms=5.0, seed=3)
        d1 = retry.delay_ms(1, tenant_index=0, request_ordinal=7)
        assert d1 == retry.delay_ms(1, tenant_index=0, request_ordinal=7)
        assert 10.0 <= d1 < 15.0
        d2 = retry.delay_ms(2, tenant_index=0, request_ordinal=7)
        assert 20.0 <= d2 < 25.0
        assert d1 != retry.delay_ms(1, tenant_index=1, request_ordinal=7)

    def test_degradation_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="min_live_fraction"):
            DegradationPolicy(min_live_fraction=0.0)
        with pytest.raises(ValueError, match="min_live_fraction"):
            DegradationPolicy(min_live_fraction=1.5)

    def test_degradation_sheds_lowest_weight_first(self):
        policy = DegradationPolicy(min_live_fraction=0.9)
        # Healthy fleet: nothing shed.
        assert policy.shed_tenants([1.0, 3.0, 2.0], live_fraction=0.9) == ()
        # Half capacity: shed lightest tenants until kept weight fits.
        assert policy.shed_tenants([1.0, 3.0, 2.0], live_fraction=0.5) == (0, 2)
        # Always keeps at least one tenant, however deep the loss.
        assert policy.shed_tenants([1.0, 3.0, 2.0], live_fraction=0.01) == (0, 2)

    def test_degradation_plan_merges_adjacent_windows(self):
        trace = _trace(("crash", 0, 100.0), ("crash", 1, 200.0), ("join", 0, 400.0))
        policy = DegradationPolicy(min_live_fraction=0.9)
        # Every segment after 100ms stays below 0.9 live (3/4, 2/4, then 3/4
        # again after the join), so the adjacent windows merge into one.
        shed, windows = policy.plan(trace, [1.0, 2.0], start_s=0.0, horizon_s=1.0)
        assert windows == ((0.1, 1.0),)
        assert shed == (((0.1, 1.0),), ())
        # A healthier threshold splits at the join: only the 2/4 dip degrades.
        shed2, windows2 = DegradationPolicy(min_live_fraction=0.7).plan(
            trace, [1.0, 2.0], start_s=0.0, horizon_s=1.0
        )
        assert windows2 == ((0.2, 0.4),)
        assert shed2 == (((0.2, 0.4),), ())


class TestReplanAndResolve:
    @pytest.fixture(scope="class")
    def world(self):
        model = model_zoo.small_vgg(32)
        devices = make_cluster([("nano", 100), ("tx2", 100), ("nano", 100)])
        return model, devices

    def test_degrade_plan_keeps_untouched_plans(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 1)
        assert degrade_plan(plan, (0, 1, 2)) is plan
        assert degrade_plan(plan, (1, 2)) is plan

    def test_degrade_plan_fails_over_to_largest_live_share(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        failover = degrade_plan(plan, (1, 2))
        assert plan_devices(failover) == frozenset({1})
        assert failover.method.endswith("+failover")
        with pytest.raises(ValueError, match="no live devices"):
            degrade_plan(plan, ())

    def test_degrader_caches_by_identity_and_live_set(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        degrader = PlanDegrader()
        a = degrader.effective_plan(plan, (1, 2))
        assert degrader.effective_plan(plan, (1, 2)) is a
        assert degrader.effective_plan(plan, (0, 1, 2)) is plan
        assert degrader.devices(a) == plan_devices(a)
        assert degrader.devices(a) is degrader.devices(a)

    def test_degrader_walks_no_plan_on_a_full_roster(self, world, monkeypatch):
        model, devices = world
        walked = []

        def counting(plan):
            walked.append(plan)
            return plan_devices(plan)

        monkeypatch.setattr(faults, "plan_devices", counting)
        degrader = PlanDegrader()
        plan = DistributionPlan.single_device(model, devices, 0)
        assert degrader.effective_plan(plan, (0, 1, 2)) is plan
        assert walked == []
        # With a device down, the crash test's cached device set decides.
        kept = DistributionPlan.single_device(model, devices, 1)
        assert degrader.effective_plan(kept, (1, 2)) is kept
        degrader.devices(kept)
        assert walked == [kept]

    def test_resolver_completes_first_attempt_with_raw_oracle_float(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        trace = _trace(("crash", 1, 100.0), n=3)
        oracle_lat = 7.123456789012345

        resolved = resolve_faulted_request(
            0.0, plan, lambda p, t: oracle_lat, trace, RetryPolicy(),
            PlanDegrader(), tenant_index=0, request_ordinal=0,
        )
        assert resolved.status == "completed"
        assert resolved.latency_ms == oracle_lat  # bit-equal, no round trip
        assert resolved.attempts == 1 and resolved.lost_attempts == 0

    def test_resolver_evaluates_the_first_attempt_at_the_dispatch_start(self, world):
        """Regression: the first attempt was evaluated at
        ``(start_s * 1000) / 1000``, an ulp off ``start_s`` here, while the
        array engine evaluates the head at ``start_s`` itself."""
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        start_s = 0.1903
        assert (start_s * 1000.0) / 1000.0 != start_s
        asked = []

        def oracle(p, t):
            asked.append(t)
            return 20.0

        trace = _trace(("crash", 0, 200.0), n=3)
        resolved = resolve_faulted_request(
            start_s, plan, oracle, trace, RetryPolicy(backoff_ms=10.0, jitter_ms=0.0),
            PlanDegrader(), tenant_index=0, request_ordinal=0,
        )
        assert resolved.attempts == 2
        assert asked == [start_s, 0.21]  # the retry: crash (200 ms) + 10 ms

    def test_resolver_retries_across_a_mid_inference_crash(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        trace = _trace(("crash", 0, 5.0), n=3)
        retry = RetryPolicy(backoff_ms=10.0, jitter_ms=0.0)

        resolved = resolve_faulted_request(
            0.0, plan, lambda p, t: 20.0, trace, retry,
            PlanDegrader(), tenant_index=0, request_ordinal=0,
        )
        assert resolved.status == "completed"
        assert resolved.attempts == 2 and resolved.lost_attempts == 1
        # Attempt 2 starts at crash (5ms) + backoff (10ms) on a failover plan.
        assert resolved.retry_added_ms == 15.0
        assert resolved.latency_ms == 35.0
        assert plan_devices(resolved.plan) <= {1, 2}

    def test_resolver_abandons_at_max_attempts(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        # Both crashes land mid-flight for their attempt windows.
        trace = _trace(("crash", 0, 5.0), ("crash", 1, 30.0), n=3)
        retry = RetryPolicy(max_attempts=2, backoff_ms=10.0, jitter_ms=0.0)

        resolved = resolve_faulted_request(
            0.0, plan, lambda p, t: 20.0, trace, retry,
            PlanDegrader(), tenant_index=0, request_ordinal=0,
        )
        assert resolved.status == "abandoned"
        assert resolved.lost_attempts == 2
        assert resolved.abandon_s == 0.030  # the second crash tick

    def test_resolver_abandons_on_timeout(self, world):
        model, devices = world
        plan = DistributionPlan.single_device(model, devices, 0)
        trace = _trace(("crash", 0, 5.0), n=3)
        retry = RetryPolicy(
            max_attempts=5, backoff_ms=10.0, jitter_ms=0.0, timeout_ms=12.0
        )
        resolved = resolve_faulted_request(
            0.0, plan, lambda p, t: 20.0, trace, retry,
            PlanDegrader(), tenant_index=0, request_ordinal=0,
        )
        # Next attempt would start at 15ms > 12ms budget: abandoned at crash.
        assert resolved.status == "abandoned"
        assert resolved.abandon_s == 0.005

    def test_seeded_spec_round_trips_through_spec_property(self):
        spec = ChurnSpec(crashes=2, leaves=1, seed=5)
        assert parse_churn_spec(spec.spec) == spec
