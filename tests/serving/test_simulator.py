"""Behavioural tests for the multi-tenant serving simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    TraceArrivals,
)


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture()
def cluster(model):
    devices = make_cluster([("nano", 100), ("nano", 100)])
    network = NetworkModel.constant_from_devices(devices)
    evaluator = BatchPlanEvaluator(devices, network)
    plan = DistributionPlan.single_device(model, devices, 0)
    return devices, network, evaluator, plan


def _service_ms(evaluator, plan):
    return evaluator.evaluate(plan).end_to_end_ms


class TestOpenLoop:
    def test_light_load_has_no_queueing(self, cluster):
        _, _, evaluator, plan = cluster
        service_ms = _service_ms(evaluator, plan)
        # Arrivals far slower than the service rate: responses equal service.
        tenant = TenantSpec(
            "light", plan, traffic=TraceArrivals(offsets_s=(0.0, 1.0, 2.0, 3.0)),
            slo=SLO(deadline_ms=10 * service_ms),
        )
        report = ServingSimulator(evaluator).run([tenant], duration_s=5.0)
        outcome = report.tenant("light")
        assert outcome.num_completed == 4
        assert np.allclose(outcome.response_ms, service_ms)
        assert np.allclose(outcome.start_s, outcome.arrival_s)
        assert outcome.deadline_miss_rate == 0.0
        assert outcome.max_queue_depth == 1

    def test_burst_queues_and_misses_deadlines(self, cluster):
        _, _, evaluator, plan = cluster
        service_ms = _service_ms(evaluator, plan)
        # Four simultaneous arrivals: positions 2..4 wait behind the head.
        tenant = TenantSpec(
            "burst", plan, traffic=TraceArrivals(offsets_s=(0.0, 0.0, 0.0, 0.0)),
            slo=SLO(deadline_ms=1.5 * service_ms),
        )
        report = ServingSimulator(evaluator).run([tenant], duration_s=1.0)
        outcome = report.tenant("burst")
        assert outcome.num_completed == 4
        expected = service_ms * np.arange(1, 5)  # FIFO: k-th waits k-1 services
        assert np.allclose(outcome.response_ms, expected)
        assert outcome.max_queue_depth == 4
        # Responses are 1x..4x the service time against a 1.5x deadline.
        assert outcome.deadline_missed.tolist() == [False, True, True, True]
        assert outcome.deadline_miss_rate == 0.75
        assert not outcome.slo_satisfied
        assert report.slo_violations == ["burst"]

    def test_admission_control_rejects_on_full_queue(self, cluster):
        _, _, evaluator, plan = cluster
        tenant = TenantSpec(
            "bounded", plan, traffic=TraceArrivals(offsets_s=(0.0, 0.0, 0.0, 0.0, 0.0)),
            queue_capacity=2,
        )
        report = ServingSimulator(evaluator).run([tenant], duration_s=1.0)
        outcome = report.tenant("bounded")
        assert outcome.num_arrivals == 5
        assert outcome.num_rejected == 3
        assert outcome.num_completed == 2
        assert outcome.num_admitted == outcome.num_completed
        assert outcome.rejected_times_s == [0.0, 0.0, 0.0]

    def test_drains_admitted_requests_past_the_horizon(self, cluster):
        _, _, evaluator, plan = cluster
        service_ms = _service_ms(evaluator, plan)
        # One arrival right before the horizon: still served to completion.
        tenant = TenantSpec("drain", plan, traffic=TraceArrivals(offsets_s=(0.99,)))
        report = ServingSimulator(evaluator).run([tenant], duration_s=1.0)
        outcome = report.tenant("drain")
        assert outcome.num_completed == 1
        assert outcome.completion_s[0] == pytest.approx(0.99 + service_ms / 1000.0)

    def test_saturating_poisson_builds_a_queue(self, cluster):
        _, _, evaluator, plan = cluster
        service_ms = _service_ms(evaluator, plan)
        rate = 3.0 * 1000.0 / service_ms  # 3x the service rate
        tenant = TenantSpec(
            "hot", plan, traffic=PoissonArrivals(rate_rps=rate, seed=4),
            slo=SLO(deadline_ms=2 * service_ms),
        )
        report = ServingSimulator(evaluator).run([tenant], duration_s=2.0)
        outcome = report.tenant("hot")
        assert outcome.max_queue_depth > 5
        assert outcome.deadline_miss_rate > 0.5
        # Response percentiles are ordered and the tail reflects queueing.
        assert outcome.p50_response_ms <= outcome.p95_response_ms <= outcome.p99_response_ms
        assert outcome.p99_response_ms > 2 * service_ms

    def test_max_requests_caps_an_open_loop_tenant(self, cluster):
        _, _, evaluator, plan = cluster
        tenant = TenantSpec(
            "capped", plan, traffic=PoissonArrivals(rate_rps=50.0, seed=1), max_requests=3
        )
        report = ServingSimulator(evaluator).run([tenant], duration_s=5.0)
        outcome = report.tenant("capped")
        assert outcome.num_completed == 3
        # The full offered load stays on the record: everything not served —
        # queued at the cap or still to arrive — is counted as rejected, and
        # the queue-depth series drains to zero.
        offered = PoissonArrivals(rate_rps=50.0, seed=1).arrival_times(5.0).size
        assert outcome.num_arrivals == offered
        assert outcome.num_rejected == offered - 3
        assert outcome.num_admitted == outcome.num_completed
        assert outcome.queue_depth_series[-1, 1] == 0

    def test_closed_loop_knobs_rejected_for_open_loop(self, cluster):
        _, _, _, plan = cluster
        with pytest.raises(ValueError, match="closed-loop knobs"):
            TenantSpec("t", plan, traffic=PoissonArrivals(1.0), gap_ms=500.0)
        with pytest.raises(ValueError, match="closed-loop knobs"):
            TenantSpec("t", plan, traffic=PoissonArrivals(1.0), max_duration_s=1.0)


class TestMultiTenant:
    def test_tenants_are_independent_streams(self, cluster, model):
        devices, _, evaluator, plan = cluster
        other = DistributionPlan.single_device(model, devices, 1, method="other")
        spec_a = TenantSpec("a", plan, traffic=PoissonArrivals(3.0, seed=1))
        spec_b = TenantSpec("b", other, traffic=PoissonArrivals(7.0, seed=2))
        together = ServingSimulator(evaluator).run([spec_a, spec_b], duration_s=10.0)
        alone_a = ServingSimulator(evaluator).run([spec_a], duration_s=10.0)
        alone_b = ServingSimulator(evaluator).run([spec_b], duration_s=10.0)
        for name, alone in [("a", alone_a), ("b", alone_b)]:
            x, y = together.tenant(name), alone.tenant(name)
            assert np.array_equal(x.completion_s, y.completion_s)
            assert np.array_equal(x.latency_ms, y.latency_ms)

    def test_mixed_open_and_closed_loop_tenants(self, cluster):
        _, _, evaluator, plan = cluster
        open_t = TenantSpec("open", plan, traffic=PoissonArrivals(5.0, seed=3))
        closed_t = TenantSpec("closed", plan, traffic=None, max_requests=7, gap_ms=50.0)
        report = ServingSimulator(evaluator).run([open_t, closed_t], duration_s=3.0)
        closed = report.tenant("closed")
        assert closed.num_completed == 7
        # Closed loop: each request starts when the previous finished + gap.
        service_s = closed.latency_ms[0] / 1000.0
        assert np.allclose(np.diff(closed.start_s), service_s + 0.05)

    def test_aggregate_metrics(self, cluster):
        _, _, evaluator, plan = cluster
        specs = [
            TenantSpec("a", plan, traffic=PoissonArrivals(4.0, seed=1), slo=SLO(1000.0)),
            TenantSpec("b", plan, traffic=PoissonArrivals(4.0, seed=2), slo=SLO(1000.0)),
        ]
        report = ServingSimulator(evaluator).run(specs, duration_s=5.0)
        assert report.total_completed == sum(t.num_completed for t in report.tenants)
        assert report.throughput_rps > 0
        assert report.epochs > 0
        assert report.response_percentile_ms(50) <= report.response_percentile_ms(99)
        assert report.deadline_miss_rate == 0.0
        assert report.slo_violations == []


class TestValidation:
    def test_open_loop_needs_duration(self, cluster):
        _, _, evaluator, plan = cluster
        tenant = TenantSpec("t", plan, traffic=PoissonArrivals(1.0))
        with pytest.raises(ValueError, match="duration_s"):
            ServingSimulator(evaluator).run([tenant])

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_knobs_rejected(self, cluster, bad):
        """Regression: a NaN deadline passed the ``<= 0`` guard and never
        missed; NaN/inf durations and rates crashed mid-run."""
        _, _, evaluator, plan = cluster
        with pytest.raises(ValueError, match="deadline_ms"):
            SLO(deadline_ms=bad)
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonArrivals(bad)
        tenant = TenantSpec("t", plan, traffic=PoissonArrivals(1.0))
        with pytest.raises(ValueError, match="duration_s"):
            ServingSimulator(evaluator).run([tenant], duration_s=bad)

    def test_closed_loop_needs_max_requests(self, cluster):
        _, _, _, plan = cluster
        with pytest.raises(ValueError, match="max_requests"):
            TenantSpec("t", plan, traffic=None)

    def test_duplicate_names_rejected(self, cluster):
        _, _, evaluator, plan = cluster
        tenants = [
            TenantSpec("t", plan, traffic=PoissonArrivals(1.0)),
            TenantSpec("t", plan, traffic=PoissonArrivals(1.0, seed=1)),
        ]
        with pytest.raises(ValueError, match="unique"):
            ServingSimulator(evaluator).run(tenants, duration_s=1.0)

    def test_batched_mode_needs_a_batch_evaluator(self, cluster, model):
        devices, network, _, plan = cluster
        scalar = PlanEvaluator(devices, network)
        tenant = TenantSpec("t", plan, traffic=PoissonArrivals(1.0))
        with pytest.raises(TypeError, match="evaluate_plans"):
            ServingSimulator(scalar).run([tenant], duration_s=1.0)
        # The reference loop accepts a scalar evaluator.
        report = ServingSimulator(scalar).run([tenant], duration_s=1.0, mode="reference")
        assert report.mode == "reference"

    def test_plan_device_count_must_match(self, cluster, model):
        _, _, evaluator, _ = cluster
        trio = make_cluster([("nano", 100)] * 3)
        plan3 = DistributionPlan.single_device(model, trio, 0)
        tenant = TenantSpec("t", plan3, traffic=PoissonArrivals(1.0))
        with pytest.raises(ValueError, match="devices"):
            ServingSimulator(evaluator).run([tenant], duration_s=1.0)

    def test_hook_and_factory_are_mutually_exclusive(self, cluster):
        _, _, _, plan = cluster
        hook = lambda t, i, p, h: None  # noqa: E731
        with pytest.raises(ValueError, match="not both"):
            TenantSpec(
                "t", plan, traffic=PoissonArrivals(1.0),
                adaptation_hook=hook, hook_factory=lambda: hook,
            )


class TestControllerUnderLoad:
    def test_online_distredge_controller_replans_a_tenant(self, fast_ddpg_config, model):
        """The Section V-F controller drives a tenant's plan while another
        tenant keeps being served — replanning *under* load."""
        from repro.core.distredge import DistrEdge, DistrEdgeConfig
        from repro.core.online import OnlineDistrEdgeController
        from repro.core.osds import OSDSConfig

        devices = make_cluster([("nano", 70), ("nano", 70)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=2)
        distredge = DistrEdge(
            DistrEdgeConfig(
                num_random_splits=5,
                osds=OSDSConfig(max_episodes=4, ddpg=fast_ddpg_config, seed=0),
                seed=0,
            )
        )
        controller = OnlineDistrEdgeController(
            model=model,
            devices=devices,
            network=network,
            distredge=distredge,
            decision_interval_s=5.0,
            replan_threshold=10.0,
        )
        initial = controller.initial_plan(0.0)
        evaluator = BatchPlanEvaluator(devices, network)
        tenants = [
            TenantSpec(
                "adaptive",
                initial,
                traffic=PoissonArrivals(rate_rps=0.5, seed=3),
                adaptation_hook=controller.adaptation_hook,
            ),
            TenantSpec("static", DistributionPlan.single_device(model, devices, 1),
                       traffic=PoissonArrivals(rate_rps=0.5, seed=4)),
        ]
        report = ServingSimulator(evaluator).run(tenants, duration_s=60.0)
        # The controller refreshed its decisions mid-stream (decision_log) and
        # both tenants were served.
        assert controller.decision_log
        assert report.tenant("adaptive").num_completed > 0
        assert report.tenant("static").num_completed > 0


class TestStreamingSpecialCase:
    """StreamingSimulator must behave exactly like the historical loop."""

    def test_matches_handrolled_closed_loop(self, cluster):
        from repro.runtime.streaming import StreamingSimulator

        _, _, evaluator, plan = cluster
        gap_ms = 40.0
        result = StreamingSimulator(evaluator, extra_gap_ms=gap_ms).run(plan, num_images=6)
        # Hand-rolled reference: the pre-serving per-image loop.
        latencies, starts, t = [], [], 0.0
        for _ in range(6):
            r = evaluator.evaluate(plan, t_seconds=t)
            latencies.append(r.end_to_end_ms)
            starts.append(t)
            t += (r.end_to_end_ms + gap_ms) / 1000.0
        assert np.array_equal(result.per_image_latency_ms, np.asarray(latencies))
        assert np.array_equal(result.image_start_s, np.asarray(starts))
        assert result.total_time_s == t
