"""Bit-identity and semantics of shared-fleet contended serving.

The PR's acceptance bar: across >= 3 tenants sharing at least one device,
under every cross-tenant discipline (FIFO, deadline-slack, WFQ), the
contended batched loop — memoized on (network state, lane
occupancy) signatures — must equal the scalar per-request reference loop
exactly, fleet breakdown included; and with contention disabled the
simulator must reproduce the independent-tenants reports unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    FleetDispatcher,
    MMPPArrivals,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    assert_reports_equal,
    run_with_parity,
)
from repro.serving.tenants import Dispatch


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


def _split_plan(model, devices, method="split"):
    boundaries = [0, 6, model.num_spatial_layers]
    volumes = model.partition(boundaries)
    return DistributionPlan(
        model,
        devices,
        boundaries,
        [SplitDecision.equal(len(devices), v.output_height) for v in volumes],
        method=method,
    )


def _three_tenants(model, devices):
    """Three tenants whose plans all land work on device 0 (shared)."""
    return [
        TenantSpec(
            "solo0",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(4.0, seed=1),
            slo=SLO(deadline_ms=60.0),
            weight=2.0,
        ),
        TenantSpec(
            "split",
            _split_plan(model, devices),
            traffic=MMPPArrivals(0.5, 10.0, dwell_low_s=4.0, dwell_high_s=2.0, seed=2),
            slo=SLO(deadline_ms=120.0),
            weight=1.0,
        ),
        TenantSpec(
            "burst0",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(3.0, seed=3),
            queue_capacity=6,
        ),
    ]


class TestContendedParity:
    @pytest.mark.parametrize("discipline", ["fifo", "deadline", "wfq"])
    def test_disciplines_constant_network(self, model, discipline):
        devices = make_cluster([("xavier", 200), ("nano", 200), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            _three_tenants(model, devices),
            duration_s=12.0,
            policy=ClusterPolicy(discipline=discipline),
        )
        assert report.contention
        assert report.discipline == discipline
        assert report.total_completed > 0
        assert report.fleet is not None
        assert report.fleet.requests == report.total_completed
        # Two tenants pile onto device 0: the run must contain real contention
        # (otherwise the parity assertion is vacuous).
        assert report.fleet.contended_requests > 0
        # The memo grouped repeated signatures into fewer evaluations.
        assert report.epochs < report.total_completed
        assert report.cache_hits > 0

    @pytest.mark.parametrize("discipline", ["fifo", "deadline", "wfq"])
    def test_disciplines_dynamic_network(self, model, discipline):
        devices = make_cluster([("nano", 70), ("nano", 70)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=5)
        tenants = [
            TenantSpec(
                "a",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(3.0, seed=7),
                slo=SLO(deadline_ms=40.0),
            ),
            TenantSpec(
                "b",
                _split_plan(model, devices),
                traffic=PoissonArrivals(2.0, seed=8),
                slo=SLO(deadline_ms=60.0),
                weight=3.0,
            ),
            TenantSpec(
                "c",
                DistributionPlan.single_device(model, devices, 1),
                traffic=None,
                max_requests=15,
                gap_ms=250.0,
            ),
        ]
        run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=10.0,
            policy=ClusterPolicy(discipline=discipline),
        )

    def test_max_inflight_parity_and_effect(self, model):
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenants = [
            TenantSpec(
                f"t{i}",
                DistributionPlan.single_device(model, devices, i % 2),
                traffic=PoissonArrivals(5.0, seed=20 + i),
                slo=SLO(deadline_ms=100.0),
            )
            for i in range(3)
        ]
        capped = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=8.0,
            policy=ClusterPolicy(discipline="fifo", max_inflight=1),
        )
        free = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=8.0,
            policy=ClusterPolicy(discipline="fifo"),
        )
        assert capped.max_inflight == 1
        assert capped.fleet.gate_wait_ms > 0
        assert free.fleet.gate_wait_ms == 0
        assert capped.response_percentile_ms(95) >= free.response_percentile_ms(95)


class TestContentionDisabled:
    def test_no_policy_reproduces_independent_reports(self, model):
        """A lone closed-loop tenant drains the fleet between its requests,
        so contended serving must reproduce the independent-tenants numbers
        exactly — and a policy-free run must stay byte-for-byte the PR 4
        behaviour (no fleet, no discipline, same tenant series)."""
        devices = make_cluster([("xavier", 200), ("nano", 200)])
        network = NetworkModel.constant_from_devices(devices)
        tenant = TenantSpec(
            "closed",
            _split_plan(model, devices),
            traffic=None,
            max_requests=12,
            gap_ms=10.0,
        )
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        independent = simulator.run([tenant], duration_s=None)
        contended = simulator.run(
            [tenant], duration_s=None, policy=ClusterPolicy(discipline="fifo")
        )
        assert independent.fleet is None and not independent.contention
        assert contended.fleet is not None
        a, b = independent.tenants[0], contended.tenants[0]
        assert np.array_equal(a.latency_ms, b.latency_ms)
        assert np.array_equal(a.completion_s, b.completion_s)
        assert contended.fleet.contended_requests == 0

    def test_policy_free_parity_unchanged(self, model):
        """Guard: the PR 4 parity contract still holds without a policy."""
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenants = [
            TenantSpec(
                "p0",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(4.0, seed=1),
            ),
            TenantSpec("p1", _split_plan(model, devices), traffic=PoissonArrivals(3.0, seed=2)),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=10.0,
        )
        assert not report.contention and report.fleet is None

    def test_parity_detects_fleet_divergence(self, model):
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenant = TenantSpec(
            "t",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(4.0, seed=1),
        )
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        fifo = simulator.run([tenant], duration_s=5.0, policy=ClusterPolicy())
        capped = simulator.run(
            [tenant], duration_s=5.0, policy=ClusterPolicy(max_inflight=1)
        )
        with pytest.raises(AssertionError):
            assert_reports_equal(fifo, capped)


class TestDisciplineSemantics:
    def test_wfq_weight_shifts_service(self):
        """Under a saturating backlog, the heavier tenant is served first."""
        heavy_model = model_zoo.small_vgg(128)
        devices = make_cluster([("pi3", 40)])
        network = NetworkModel.constant_from_devices(devices)
        plan = DistributionPlan.single_device(heavy_model, devices, 0)

        def run(weight_a):
            tenants = [
                TenantSpec(
                    "heavy",
                    plan,
                    traffic=PoissonArrivals(30.0, seed=1),
                    slo=SLO(deadline_ms=200.0),
                    weight=weight_a,
                ),
                TenantSpec(
                    "light",
                    plan,
                    traffic=PoissonArrivals(30.0, seed=2),
                    slo=SLO(deadline_ms=200.0),
                ),
            ]
            simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
            return simulator.run(
                tenants, duration_s=3.0, policy=ClusterPolicy(discipline="wfq")
            )

        boosted = run(8.0)
        equal = run(1.0)
        assert boosted.fleet.contended_requests > 0, (
            "workload never contended the fleet; the weight comparison is vacuous"
        )
        # Raising "heavy"'s weight must improve its response relative to the
        # equal-weight run (it wins more of the contended lane time), and the
        # unweighted tenant pays for it.
        assert (
            boosted.tenant("heavy").mean_response_ms
            < equal.tenant("heavy").mean_response_ms
        )
        assert (
            boosted.tenant("light").mean_response_ms
            > equal.tenant("light").mean_response_ms
        )

    def test_deadline_discipline_prefers_least_slack(self, model):
        devices = make_cluster([("nano", 100)])
        specs = [
            TenantSpec(
                "tight",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(1.0, seed=1),
                slo=SLO(deadline_ms=10.0),
            ),
            TenantSpec(
                "loose",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(1.0, seed=2),
                slo=SLO(deadline_ms=1000.0),
            ),
            TenantSpec(
                "none",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(1.0, seed=3),
            ),
        ]
        dispatcher = FleetDispatcher("deadline", specs)
        pending = {
            0: Dispatch(arrival_s=1.0, start_s=1.0, plan=specs[0].plan),
            1: Dispatch(arrival_s=1.0, start_s=1.0, plan=specs[1].plan),
            2: Dispatch(arrival_s=0.5, start_s=0.5, plan=specs[2].plan),
        }
        # Least slack wins even though the SLO-less tenant released earlier.
        assert dispatcher.select(pending) == 0
        del pending[0]
        assert dispatcher.select(pending) == 1
        del pending[1]
        assert dispatcher.select(pending) == 2

    def test_fifo_breaks_ties_by_tenant_order(self, model):
        devices = make_cluster([("nano", 100)])
        plan = DistributionPlan.single_device(model, devices, 0)
        specs = [
            TenantSpec(f"t{i}", plan, traffic=PoissonArrivals(1.0, seed=i)) for i in range(2)
        ]
        dispatcher = FleetDispatcher("fifo", specs)
        pending = {
            1: Dispatch(arrival_s=2.0, start_s=2.0, plan=plan),
            0: Dispatch(arrival_s=2.0, start_s=2.0, plan=plan),
        }
        assert dispatcher.select(pending) == 0

    def test_priority_cannot_overtake_across_an_idle_fleet(self, model):
        """A dispatch released after the fleet drains must not be scheduled
        ahead of earlier pending work (the inversion would charge an
        idle-fleet request for lane occupancy created in its future)."""
        from repro.serving.traffic import TraceArrivals

        devices = make_cluster([("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        plan = DistributionPlan.single_device(model, devices, 0)
        tenants = [
            TenantSpec(
                "early",
                plan,
                traffic=TraceArrivals(offsets_s=(0.1, 0.2)),
                slo=SLO(deadline_ms=100.0),
            ),
            TenantSpec(
                "late",
                plan,
                traffic=TraceArrivals(offsets_s=(10.0,)),
                slo=SLO(deadline_ms=100.0),
                weight=100.0,
            ),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=15.0,
            policy=ClusterPolicy(discipline="wfq"),
        )
        early = report.tenant("early")
        # The fleet is idle between 0.2s and 10s: both early requests are
        # served on the spot, never behind the future t=10 dispatch.
        assert early.response_ms.max() < 1000.0
        assert report.deadline_miss_rate == 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="discipline"):
            ClusterPolicy(discipline="lifo")
        with pytest.raises(ValueError, match="max_inflight"):
            ClusterPolicy(max_inflight=0)
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(
                "w",
                plan=None,  # weight check fires before plan use
                traffic=PoissonArrivals(1.0),
                weight=0.0,
            )


class TestPerTenantPlanCache:
    def test_batched_loop_skips_repeat_evaluations(self, model):
        """Steady-state dispatches on a constant network ride a speculation
        window or hit the per-tenant memo instead of re-entering the
        evaluator."""
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)

        calls = []

        class CountingEvaluator(BatchPlanEvaluator):
            def evaluate_plans(self, plans, t_seconds=0.0, rates=None):
                calls.append(len(plans))
                return super().evaluate_plans(plans, t_seconds, rates)

        tenants = [
            TenantSpec(
                "a",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(4.0, seed=1),
            ),
            TenantSpec("b", _split_plan(model, devices), traffic=PoissonArrivals(4.0, seed=2)),
        ]
        simulator = ServingSimulator(CountingEvaluator(devices, network))
        report = simulator.run(tenants, duration_s=10.0)
        # Each tenant's (plan, network-state) pair is evaluated once; every
        # later dispatch is speculated or a per-tenant cache hit, bypassing
        # the batch engine entirely.
        assert sum(calls) == 2
        assert report.cache_hits + report.speculated == report.total_completed - 2
        assert report.total_completed > 10

    def test_cache_respects_replans(self, model):
        """A strategy change re-evaluates; returning to a seen strategy hits."""
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        plan_a = DistributionPlan.single_device(model, devices, 0, method="a")
        plan_b = DistributionPlan.single_device(model, devices, 1, method="b")

        def hook_factory():
            def hook(t, index, current, history):
                # Flip strategy every 4 requests.
                return plan_b if (index // 4) % 2 else plan_a

            return hook

        tenants = [
            TenantSpec(
                "flip",
                plan_a,
                traffic=PoissonArrivals(5.0, seed=4),
                hook_factory=hook_factory,
            )
        ]
        batch = BatchPlanEvaluator(devices, network)
        report = run_with_parity(batch, PlanEvaluator(devices, network), tenants, duration_s=8.0)
        flip = report.tenant("flip")
        assert flip.replan_times_s, "hook never changed the strategy; test is vacuous"
        # A hooked tenant runs on the scalar loop: both strategies were
        # evaluated once and the rest hit the evaluator's plan LRU.
        info = batch.cache_info()
        assert info["misses"] == 2
        assert info["hits"] == report.total_completed - 2
