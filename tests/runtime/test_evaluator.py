"""Tests for the single-image plan evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.latency_model import ComputeLatencyModel
from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.evaluator import EvaluationResult, PlanEvaluator
from repro.runtime.plan import DistributionPlan


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


def make_env(spec):
    devices = make_cluster(spec)
    network = NetworkModel.constant_from_devices(devices)
    return devices, network, PlanEvaluator(devices, network)


def plan_with(model, devices, boundaries, fractions):
    volumes = model.partition(boundaries)
    decisions = [SplitDecision.from_fractions(fractions, v.output_height) for v in volumes]
    return DistributionPlan(model, devices, boundaries, decisions)


class TestOffloadPlans:
    def test_offload_latency_decomposition(self, model):
        devices, network, evaluator = make_env([("xavier", 200), ("nano", 200)])
        plan = DistributionPlan.single_device(model, devices, 0)
        result = evaluator.evaluate(plan)
        compute = ComputeLatencyModel(devices[0].dtype).full_model(model.spatial_layers)
        # End-to-end = scatter + backbone + head + return; must exceed pure backbone.
        assert result.end_to_end_ms > compute
        assert result.per_device_compute_ms[1] == 0.0
        assert result.head_device == 0

    def test_faster_device_offload_is_faster(self, model):
        devices, network, evaluator = make_env([("xavier", 200), ("nano", 200)])
        fast = evaluator.evaluate(DistributionPlan.single_device(model, devices, 0))
        slow = evaluator.evaluate(DistributionPlan.single_device(model, devices, 1))
        assert fast.end_to_end_ms < slow.end_to_end_ms

    def test_ips_is_inverse_latency(self, model):
        devices, network, evaluator = make_env([("nano", 100), ("nano", 100)])
        result = evaluator.evaluate(DistributionPlan.single_device(model, devices, 0))
        assert result.ips == pytest.approx(1000.0 / result.end_to_end_ms)


class TestDistributedPlans:
    def test_accumulated_latencies_shape(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        plan = plan_with(model, hetero_cluster, [0, 4, 8, 12], [1, 1, 1, 1])
        result = evaluator.evaluate(plan)
        acc = result.accumulated_latencies
        assert len(acc) == 3
        assert all(a.shape == (4,) for a in acc)
        # Accumulated latencies are non-decreasing over volumes for devices
        # that keep participating.
        assert np.all(acc[1] >= acc[0] - 1e-9)

    def test_empty_device_carries_latency_forward(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        boundaries = [0, 6, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        decisions = [
            SplitDecision.from_fractions([1, 1, 0, 0], volumes[0].output_height),
            SplitDecision.from_fractions([1, 0, 0, 0], volumes[1].output_height),
        ]
        plan = DistributionPlan(model, hetero_cluster, boundaries, decisions)
        result = evaluator.evaluate(plan)
        assert result.per_device_compute_ms[2] == 0.0
        assert result.per_device_compute_ms[3] == 0.0

    def test_distribution_helps_on_homogeneous_slow_cluster(self):
        """Four slow devices beat one slow device on a real-size model (the
        paper's core premise)."""
        vgg = model_zoo.vgg16()
        devices, network, evaluator = make_env([("nano", 200)] * 4)
        offload = evaluator.evaluate(DistributionPlan.single_device(vgg, devices, 0))
        distributed = evaluator.evaluate(
            plan_with(vgg, devices, [0, 3, 6, 10, 14, 18], [1, 1, 1, 1])
        )
        assert distributed.end_to_end_ms < offload.end_to_end_ms

    def test_lower_bandwidth_increases_latency(self, model):
        fast_devices, _, fast_eval = make_env([("nano", 300)] * 2)
        slow_devices, _, slow_eval = make_env([("nano", 20)] * 2)
        boundaries = [0, 6, 12]
        fast = fast_eval.evaluate(plan_with(model, fast_devices, boundaries, [1, 1]))
        slow = slow_eval.evaluate(plan_with(model, slow_devices, boundaries, [1, 1]))
        assert slow.end_to_end_ms > fast.end_to_end_ms
        assert slow.max_transmission_ms > fast.max_transmission_ms

    def test_layer_by_layer_has_more_transmission(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        fused = evaluator.evaluate(plan_with(model, hetero_cluster, [0, 6, 12], [1, 1, 1, 1]))
        lbl = evaluator.evaluate(
            plan_with(model, hetero_cluster, model.layer_by_layer_partition(), [1, 1, 1, 1])
        )
        assert lbl.max_transmission_ms > fused.max_transmission_ms

    def test_breakdown_consistency(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        plan = plan_with(model, hetero_cluster, [0, 6, 12], [4, 4, 1, 1])
        result = evaluator.evaluate(plan)
        assert result.max_compute_ms == pytest.approx(result.per_device_compute_ms.max())
        assert result.max_compute_ms < result.end_to_end_ms
        assert result.per_device_recv_ms.sum() > 0

    def test_time_argument_changes_nothing_on_constant_network(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        plan = plan_with(model, hetero_cluster, [0, 6, 12], [1, 1, 1, 1])
        a = evaluator.evaluate(plan, t_seconds=0.0)
        b = evaluator.evaluate(plan, t_seconds=1234.0)
        assert a.end_to_end_ms == pytest.approx(b.end_to_end_ms)

    def test_dynamic_network_changes_latency_over_time(self, model):
        devices = make_cluster([("nano", 70)] * 2)
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=1)
        evaluator = PlanEvaluator(devices, network)
        plan = plan_with(model, devices, [0, 6, 12], [1, 1])
        latencies = {evaluator.evaluate(plan, t_seconds=t).end_to_end_ms for t in (0, 900, 1800, 2700)}
        assert len(latencies) > 1

    def test_input_encoding_scales_scatter(self, model):
        devices = make_cluster([("nano", 50)] * 2)
        network = NetworkModel.constant_from_devices(devices)
        small_input = PlanEvaluator(devices, network, input_bytes_per_element=0.2)
        big_input = PlanEvaluator(devices, network, input_bytes_per_element=2.0)
        plan = plan_with(model, devices, [0, 6, 12], [1, 1])
        assert (
            big_input.evaluate(plan).end_to_end_ms > small_input.evaluate(plan).end_to_end_ms
        )

    def test_invalid_input_encoding(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        with pytest.raises(ValueError):
            PlanEvaluator(hetero_cluster, network, input_bytes_per_element=0.0)

    def test_plan_device_count_mismatch(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        other = make_cluster([("nano", 100)] * 2)
        plan = plan_with(model, other, [0, 12], [1, 1])
        with pytest.raises(ValueError):
            evaluator.evaluate(plan)

    def test_no_dense_head_returns_outputs_to_requester(self):
        model = model_zoo.yolov2()
        devices = make_cluster([("xavier", 200), ("xavier", 200)])
        network = NetworkModel.constant_from_devices(devices)
        evaluator = PlanEvaluator(devices, network)
        plan = plan_with(model, devices, [0, model.num_spatial_layers], [1, 1])
        result = evaluator.evaluate(plan)
        assert result.head_device is None
        assert result.head_compute_ms == 0.0

    def test_finalize_before_volumes_rejected(self, model, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        plan = plan_with(model, hetero_cluster, [0, 12], [1, 1, 1, 1])
        with pytest.raises(ValueError):
            evaluator.finalize(evaluator.new_state(), plan)


class TestIpsGuard:
    """Regression: ``ips`` used to return ``inf`` for non-positive latency."""

    @staticmethod
    def _result_with_latency(latency_ms):
        return EvaluationResult(
            end_to_end_ms=latency_ms,
            volume_timings=[],
            per_device_compute_ms=np.zeros(2),
            per_device_send_ms=np.zeros(2),
            per_device_recv_ms=np.zeros(2),
            scatter_end_ms=0.0,
            head_device=None,
            head_compute_ms=0.0,
        )

    def test_zero_latency_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            self._result_with_latency(0.0).ips

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            self._result_with_latency(-5.0).ips

    def test_nan_latency_raises(self):
        # `nan <= 0` is False, so a `<= 0` guard let NaN through as IPS nan.
        with pytest.raises(ValueError, match="non-positive"):
            self._result_with_latency(float("nan")).ips

    def test_positive_latency_unchanged(self):
        assert self._result_with_latency(250.0).ips == pytest.approx(4.0)
