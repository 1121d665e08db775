"""Bit-identity of the epoch-batched event loop vs the naive reference loop.

The acceptance bar for the serving subsystem: across multiple tenants, a
dynamic-network trace, and a replanning controller adapting *under load*,
the batched loop's every per-request number — arrivals, starts, completions,
latencies, responses, deadline flags, queue-depth events, rejections and
replan logs — must equal the reference loop's exactly (no tolerance).
"""

from __future__ import annotations

import pytest

from repro.baselines import BASELINE_REGISTRY, CoEdgePlanner
from repro.core.online import PeriodicReplanController
from repro.devices.specs import make_cluster
from repro.experiments.scenarios import generate_scenario
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    assert_reports_equal,
    run_with_parity,
)


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


def _split_plan(model, devices, method="split"):
    from repro.nn.splitting import SplitDecision

    boundaries = [0, 6, model.num_spatial_layers]
    volumes = model.partition(boundaries)
    return DistributionPlan(
        model,
        devices,
        boundaries,
        [SplitDecision.equal(len(devices), v.output_height) for v in volumes],
        method=method,
    )


class TestParity:
    def test_two_tenants_constant_network(self, model):
        devices = make_cluster([("xavier", 200), ("nano", 200)])
        network = NetworkModel.constant_from_devices(devices)
        tenants = [
            TenantSpec(
                "p0",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(4.0, seed=1),
                slo=SLO(deadline_ms=50.0),
            ),
            TenantSpec(
                "p1",
                _split_plan(model, devices),
                traffic=MMPPArrivals(0.5, 12.0, seed=2),
                slo=SLO(deadline_ms=80.0),
                queue_capacity=4,
            ),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=20.0,
        )
        assert report.mode == "batched"
        assert report.total_completed > 0
        # Constant network: every epoch's dispatches share one signature, so
        # the batched loop ran with genuine cross-tenant batches.
        assert report.epochs < report.total_completed

    def test_dynamic_network_trace(self, model):
        devices = make_cluster([("nano", 70), ("nano", 70)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=3)
        tenants = [
            TenantSpec(
                "a",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(3.0, seed=5),
                slo=SLO(deadline_ms=20.0),
            ),
            TenantSpec(
                "b",
                _split_plan(model, devices),
                traffic=DiurnalArrivals(base_rps=1.0, peak_rps=8.0, period_s=10.0, seed=6),
                slo=SLO(deadline_ms=30.0),
            ),
            TenantSpec("c", DistributionPlan.single_device(model, devices, 1),
                       traffic=None, max_requests=25, gap_ms=400.0),
        ]
        run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=15.0,
        )

    def test_replanning_controller_under_load(self, model):
        """A Section V-F controller replans a tenant mid-stream, bit-identically."""
        devices = make_cluster([("nano", 70), ("nano", 70)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=2)
        planner = CoEdgePlanner()

        def controller_factory():
            controller = PeriodicReplanController(
                planner_fn=lambda t: planner.plan(model, devices, network),
                network=network,
                replan_threshold=0.05,
                replan_delay_s=1.0,
            )
            return controller.adaptation_hook

        tenants = [
            TenantSpec(
                "adaptive",
                DistributionPlan.single_device(model, devices, 0, method="initial"),
                traffic=PoissonArrivals(2.0, seed=9),
                slo=SLO(deadline_ms=25.0),
                hook_factory=controller_factory,
            ),
            TenantSpec(
                "static",
                _split_plan(model, devices),
                traffic=PoissonArrivals(2.0, seed=10),
            ),
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=30.0,
        )
        adaptive = report.tenant("adaptive")
        assert adaptive.replan_times_s, "the controller never replanned; test is vacuous"
        assert adaptive.final_method == "coedge"

    def test_generated_32_device_fleet_baseline_plans(self):
        """The four baseline plans of the serve benchmarks, on their 32-device
        fleet: the array engine (whose cold evaluation walks the three plans
        sharing boundaries as one small group) against the reference loop,
        attribution and alerts included."""
        devices, network = generate_scenario(32, seed=17).build(seed=17)
        vgg16 = model_zoo.get("vgg16")
        methods = ("coedge", "modnn", "mednn", "offload")
        plans = {m: BASELINE_REGISTRY[m]().plan(vgg16, devices, network) for m in methods}
        tenants = [
            TenantSpec(
                f"{methods[i % 4]}-{i}",
                plans[methods[i % 4]],
                traffic=PoissonArrivals(2.0, seed=1000 + i),
                slo=SLO(deadline_ms=500.0),
            )
            for i in range(8)
        ]
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants,
            duration_s=10.0,
            compare_analysis=True,
        )
        assert all(tenant.num_completed for tenant in report.tenants)

    def test_parity_rejects_bare_stateful_hooks(self, model):
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        tenants = [
            TenantSpec(
                "t",
                DistributionPlan.single_device(model, devices, 0),
                traffic=PoissonArrivals(1.0),
                adaptation_hook=lambda t, i, p, h: None,
            )
        ]
        with pytest.raises(ValueError, match="hook_factory"):
            run_with_parity(
                BatchPlanEvaluator(devices, network),
                PlanEvaluator(devices, network),
                tenants,
                duration_s=1.0,
            )

    def test_assert_reports_equal_detects_divergence(self, model):
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        evaluator = BatchPlanEvaluator(devices, network)
        tenant = TenantSpec(
            "t",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(2.0, seed=1),
        )
        simulator = ServingSimulator(evaluator)
        a = simulator.run([tenant], duration_s=5.0)
        b = simulator.run([tenant], duration_s=6.0)  # different workload
        with pytest.raises(AssertionError):
            assert_reports_equal(a, b)
