"""Churn-aware serving: parity, crash-boundary edge cases, conservation.

The fault subsystem's acceptance bar: on a fleet that crashes mid-run, the
reference and batched (array engine) serving loops must agree float-for-float
on every request — including requests killed mid-inference, retried on a
replanned strategy, abandoned at their retry budget, or shed by the
degradation policy.  The boundary cases (crash exactly at a completion
tick, during an admission-gate wait, under an uncommitted speculation
window) each get a dedicated parity test.
"""

from __future__ import annotations

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs.trace import Tracer
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.faults import (
    DegradationPolicy,
    FaultEvent,
    FaultTrace,
    RetryPolicy,
)
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    run_with_parity,
)

CHURN = "churn:events=crash:0@120;leave:1@400;join:0@900;crash:2@1200"
RETRY = RetryPolicy(max_attempts=3, backoff_ms=20.0, jitter_ms=5.0, seed=7)
DEGRADE = DegradationPolicy(min_live_fraction=0.8)


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="module")
def fleet(model):
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70), ("nano", 70)])
    network = NetworkModel.constant_from_devices(devices)
    return devices, network


def churn_tenants(model, devices):
    return [
        TenantSpec(
            "alpha",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(120.0, seed=3),
            slo=SLO(deadline_ms=40.0),
            weight=3.0,
        ),
        TenantSpec(
            "beta",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(80.0, seed=4),
            weight=1.0,
        ),
        TenantSpec(
            "closed",
            DistributionPlan.single_device(model, devices, 2),
            max_requests=40,
            gap_ms=5.0,
            weight=2.0,
        ),
    ]


def assert_conserved(report):
    """No request may vanish: every arrival ends in exactly one bucket."""
    for t in report.tenants:
        accounted = (
            t.num_completed + t.num_rejected + t.num_denied
            + t.num_abandoned + t.num_shed
        )
        assert accounted == t.num_arrivals, (
            f"{t.name}: {t.num_arrivals} arrivals but {accounted} accounted"
        )


class TestChurnParity:
    """The reference, batched and contended loops on one crashing fleet."""

    def test_object_engine_parity_with_mid_inference_crash(self, model, fleet):
        devices, network = fleet
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            churn_tenants(model, devices),
            duration_s=2.0,
            faults=CHURN,
            retry=RETRY,
            degradation=DEGRADE,
        )
        faults = report.faults
        assert faults is not None
        assert faults.num_crashes == 2 and faults.live_at_end == 2
        # The scenario is only meaningful if churn actually bit.
        assert faults.lost_attempts > 0
        assert faults.total_shed > 0
        assert_conserved(report)

    @pytest.mark.parametrize("capped", [(1,), (1, 3)], ids=["queue-cap-on-1", "queue-caps-on-1-3"])
    def test_tenant_indices_survive_the_split(self, capped):
        """A batched run splits its tenants between the array engine and the
        scalar loop (the queue-capped tenants).  Both must index the tenants
        by their position in the caller's list: the retry jitter is drawn per
        (attempt, tenant index, ordinal), so renumbering the column tenants
        0, 2, 3 as 0, 1, 2 — or the scalar tenants 1, 3 as 0, 1 — would move
        their retries."""
        from repro.baselines import CoEdgePlanner, MoDNNPlanner, OffloadPlanner
        from repro.experiments.scenarios import generate_scenario

        devices, network = generate_scenario(8, seed=3).build(seed=3)
        vgg16 = model_zoo.vgg16()
        planners = [CoEdgePlanner, MoDNNPlanner, OffloadPlanner, CoEdgePlanner]
        tenants = [
            TenantSpec(
                f"{planner.__name__}-{i}",
                planner().plan(vgg16, devices, network),
                traffic=PoissonArrivals(4.0, seed=10 + i),
                slo=SLO(500.0),
                queue_capacity=2 if i in capped else None,
            )
            for i, planner in enumerate(planners)
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=20.0,
            faults="churn:crashes=8,leaves=1,joins=1,window_ms=15000",
            retry=RetryPolicy(max_attempts=3, backoff_ms=25.0, jitter_ms=5.0, seed=1),
        )
        retried = [t.num_retried for t in report.tenants]
        assert all(retried[i] > 0 for i in (0, 2, 3)), f"no retries to move: {retried}"
        assert report.tenants[1].num_rejected > 0, "queue cap never bit; test is vacuous"
        assert_conserved(report)

    def test_contended_parity_with_churn(self, model, fleet):
        devices, network = fleet
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            churn_tenants(model, devices),
            duration_s=2.0,
            policy=ClusterPolicy(discipline="wfq"),
            faults=CHURN,
            retry=RETRY,
            degradation=DEGRADE,
        )
        assert report.faults is not None
        assert_conserved(report)


class TestCrashBoundaries:
    def test_crash_exactly_at_completion_tick_does_not_kill(self, model, fleet):
        devices, network = fleet
        plan = DistributionPlan.single_device(model, devices, 0)
        lat = PlanEvaluator(devices, network).evaluate(plan).end_to_end_ms
        # Device 0 dies at the precise tick its first request completes: the
        # open-interval contract says the request already finished.
        trace = FaultTrace(
            events=(FaultEvent(t_ms=lat, kind="crash", device=0),),
            num_devices=len(devices),
        )
        tenants = [
            TenantSpec("t", plan, max_requests=5, gap_ms=5.0),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=2.0,
            faults=trace,
            retry=RETRY,
        )
        t = report.tenant("t")
        assert t.num_completed == 5
        assert t.num_lost_attempts == 0 and t.num_retried == 0
        # Request 0 kept the oracle's raw latency float, bit-equal.
        assert t.latency_ms[0] == lat
        # Later requests replanned around the dead device and still finished.
        assert report.faults.live_at_end == len(devices) - 1

    def test_crash_strictly_inside_first_request_kills_it(self, model, fleet):
        devices, network = fleet
        plan = DistributionPlan.single_device(model, devices, 0)
        lat = PlanEvaluator(devices, network).evaluate(plan).end_to_end_ms
        trace = FaultTrace(
            events=(FaultEvent(t_ms=lat * 0.5, kind="crash", device=0),),
            num_devices=len(devices),
        )
        tenants = [TenantSpec("t", plan, max_requests=5, gap_ms=5.0)]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=2.0,
            faults=trace,
            retry=RetryPolicy(max_attempts=3, backoff_ms=10.0, jitter_ms=0.0),
        )
        t = report.tenant("t")
        assert t.num_completed == 5
        assert t.num_lost_attempts == 1 and t.num_retried == 1
        # The killed attempt's latency spans crash + backoff + the retry.
        assert t.latency_ms[0] > lat

    def test_crash_during_admission_gate_wait(self, model, fleet):
        """Requests held at the max-inflight gate when the device dies must
        dispatch on the post-churn fleet, bit-identically in both loops."""
        devices, network = fleet
        tenants = churn_tenants(model, devices)
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=2.0,
            policy=ClusterPolicy(discipline="fifo", max_inflight=1),
            faults=CHURN,
            retry=RETRY,
        )
        assert report.fleet is not None
        # The gate was genuinely contended while the fleet churned.
        assert report.fleet.gate_wait_ms > 0
        assert report.faults.num_crashes == 2
        assert_conserved(report)

    def test_speculated_tail_rolls_back_without_losing_requests(self, model, fleet):
        """A crash landing inside an uncommitted array-engine speculation
        window must roll the tail back and re-resolve it, not drop it."""
        devices, network = fleet
        tenants = [
            TenantSpec(
                "hot",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(400.0, seed=11),
                slo=SLO(deadline_ms=60.0),
            ),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=2.0,
            faults="churn:events=crash:0@150;join:0@900;crash:0@1300",
            retry=RetryPolicy(max_attempts=4, backoff_ms=10.0, jitter_ms=2.0),
        )
        # Speculation actually ran (windows > 1 committed) AND crashes bit.
        assert report.speculated > 0
        assert report.faults.lost_attempts >= 2
        assert_conserved(report)


class TestNoChurnByteIdentity:
    def test_idle_trace_changes_nothing(self, model, fleet):
        """A trace with no event inside the horizon must reproduce the
        no-churn run float-for-float in every serving loop (the parity
        contract's base case).  A churn-free run *is* the empty trace."""
        devices, network = fleet
        beyond = (FaultEvent(t_ms=1e9, kind="crash", device=0),)
        loops = {
            "batched": {},
            "reference": {"mode": "reference"},
            "contended": {"policy": ClusterPolicy(discipline="wfq", max_inflight=2)},
        }
        for events in ((), beyond):
            idle = FaultTrace(events=events, num_devices=len(devices))
            for loop, kwargs in loops.items():
                plain_tracer, churned_tracer = Tracer(), Tracer()
                plain = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
                    churn_tenants(model, devices), duration_s=2.0, tracer=plain_tracer, **kwargs
                )
                churned = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
                    churn_tenants(model, devices),
                    duration_s=2.0,
                    faults=idle,
                    retry=RETRY,
                    degradation=DEGRADE,
                    tracer=churned_tracer,
                    **kwargs,
                )
                assert plain.faults is None and churned.faults is not None, loop
                assert churned.faults.lost_attempts == 0, loop
                assert churned.faults.total_shed == 0, loop
                plain_dict, churned_dict = plain.to_dict(), churned.to_dict()
                assert "faults" not in plain_dict
                churned_dict.pop("faults")
                assert plain_dict == churned_dict, loop
                # The fleet timeline lists the trace's events, the one
                # beyond the horizon included; every other byte is the
                # plain run's.
                lines = churned_tracer.lines()
                kept = [line for line in lines if " fleet fault " not in line]
                assert len(kept) == len(lines) - len(events), loop
                assert plain_tracer.lines() == kept, loop


class TestMergedEpochLoop:
    def test_churned_heads_share_an_evaluation(self, model, fleet):
        """Under churn, heads with one network state are still evaluated
        together: on a constant network the first epoch passes every
        tenant's plan to one ``evaluate_plans`` call."""
        devices, network = fleet
        sizes = []

        class SpyEvaluator(BatchPlanEvaluator):
            def evaluate_plans(self, plans, t_seconds=0.0, rates=None):
                sizes.append(len(plans))
                return super().evaluate_plans(plans, t_seconds, rates)

        report = run_with_parity(
            SpyEvaluator(devices, network),
            PlanEvaluator(devices, network),
            churn_tenants(model, devices),
            duration_s=2.0,
            faults=CHURN,
            retry=RETRY,
        )
        assert report.faults.lost_attempts > 0
        assert max(sizes) > 1


class TestFaultReportSurface:
    def test_report_to_dict_includes_faults(self, model, fleet):
        devices, network = fleet
        report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
            churn_tenants(model, devices),
            duration_s=2.0,
            faults=CHURN,
            retry=RETRY,
            degradation=DEGRADE,
        )
        data = report.to_dict()
        assert data["faults"]["num_crashes"] == 2
        assert data["faults"]["total_shed"] == report.faults.total_shed
        alpha = data["tenants"][0]
        assert alpha["num_shed"] == report.tenants[0].num_shed

    def test_policies_without_faults_rejected(self, model, fleet):
        devices, network = fleet
        with pytest.raises(ValueError, match="pass faults"):
            ServingSimulator(BatchPlanEvaluator(devices, network)).run(
                churn_tenants(model, devices), duration_s=1.0, retry=RETRY
            )
