"""Tests for plan/result serialisation."""

from __future__ import annotations

import json

import pytest

from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.runtime.serialization import (
    PLAN_FORMAT_VERSION,
    evaluation_to_dict,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.network.topology import NetworkModel


@pytest.fixture()
def plan(hetero_cluster):
    model = model_zoo.small_vgg(64)
    boundaries = [0, 4, 8, model.num_spatial_layers]
    volumes = model.partition(boundaries)
    decisions = [
        SplitDecision.from_fractions([4, 4, 1, 1], v.output_height) for v in volumes
    ]
    return DistributionPlan(model, hetero_cluster, boundaries, decisions, method="unit-test")


class TestPlanSerialization:
    def test_roundtrip_preserves_strategy(self, plan):
        data = plan_to_dict(plan)
        restored = plan_from_dict(data, model=plan.model)
        assert restored.method == plan.method
        assert restored.boundaries == plan.boundaries
        assert restored.head_device == plan.head_device
        assert [d.cuts for d in restored.decisions] == [d.cuts for d in plan.decisions]
        assert [d.device_id for d in restored.devices] == [d.device_id for d in plan.devices]

    def test_roundtrip_through_zoo_model(self, plan):
        # small_vgg is a zoo model, so the plan can be restored by name alone.
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.model.name == "small_vgg"

    def test_dict_is_json_serialisable(self, plan):
        text = json.dumps(plan_to_dict(plan))
        assert "unit-test" in text

    def test_save_and_load_file(self, plan, tmp_path):
        path = save_plan(plan, tmp_path / "plan.json")
        restored = load_plan(path)
        assert restored.boundaries == plan.boundaries

    def test_format_version_checked(self, plan):
        data = plan_to_dict(plan)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_wrong_model_rejected(self, plan):
        data = plan_to_dict(plan)
        with pytest.raises(ValueError):
            plan_from_dict(data, model=model_zoo.tiny_cnn())

    def test_tampered_heights_rejected(self, plan):
        """A plan whose decisions no longer match the model fails validation."""
        data = plan_to_dict(plan)
        data["decisions"][0]["output_height"] = 999
        with pytest.raises(ValueError):
            plan_from_dict(data)

    def test_restored_plan_evaluates_identically(self, plan, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        evaluator = PlanEvaluator(hetero_cluster, network)
        original = evaluator.evaluate(plan).end_to_end_ms
        restored = plan_from_dict(plan_to_dict(plan))
        restored_latency = PlanEvaluator(restored.devices,
                                         NetworkModel.constant_from_devices(restored.devices)
                                         ).evaluate(restored).end_to_end_ms
        assert restored_latency == pytest.approx(original, rel=1e-9)

    def test_version_constant(self):
        assert PLAN_FORMAT_VERSION == 1


class TestEvaluationSerialization:
    def test_evaluation_to_dict_fields(self, plan, hetero_cluster):
        network = NetworkModel.constant_from_devices(hetero_cluster)
        result = PlanEvaluator(hetero_cluster, network).evaluate(plan)
        summary = evaluation_to_dict(result)
        assert summary["ips"] == pytest.approx(result.ips)
        assert len(summary["per_device_compute_ms"]) == len(hetero_cluster)
        json.dumps(summary)  # must be JSON-serialisable
