"""Serialisation of distribution plans and evaluation results.

A deployment workflow needs to move plans between machines: the controller
computes a strategy once, stores it, and the requester/providers load it at
service time (the paper's controller "informs the requester to send the
split-parts to the corresponding providers").  This module provides a stable
JSON representation for :class:`~repro.runtime.plan.DistributionPlan` plus a
compact dict form of evaluation results for logging experiment outcomes.

The model itself is not embedded — plans reference the model by name and are
re-validated against a freshly built :class:`~repro.nn.graph.ModelSpec` on
load, so a stale plan for a different architecture fails loudly instead of
silently mis-splitting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.devices.specs import DeviceInstance, get_device_type
from repro.nn import model_zoo
from repro.nn.graph import ModelSpec
from repro.nn.splitting import SplitDecision
from repro.runtime.evaluator import EvaluationResult
from repro.runtime.plan import DistributionPlan

#: Format version written into every serialised plan.
PLAN_FORMAT_VERSION = 1


def plan_to_dict(plan: DistributionPlan) -> Dict:
    """Convert a plan to a JSON-serialisable dictionary."""
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "method": plan.method,
        "model": plan.model.name,
        "boundaries": list(plan.boundaries),
        "head_device": plan.head_device,
        "devices": [
            {
                "device_id": d.device_id,
                "type": d.type_name,
                "bandwidth_mbps": d.bandwidth_mbps,
            }
            for d in plan.devices
        ],
        "decisions": [
            {"cuts": list(decision.cuts), "output_height": decision.output_height}
            for decision in plan.decisions
        ],
    }


def plan_from_dict(data: Dict, model: Optional[ModelSpec] = None) -> DistributionPlan:
    """Reconstruct a plan from :func:`plan_to_dict` output.

    ``model`` may be supplied explicitly (e.g. a custom architecture);
    otherwise the model is rebuilt from the zoo by name.  Validation inside
    :class:`DistributionPlan` re-checks boundaries and split heights against
    the model, so loading a plan against the wrong architecture raises.
    """
    version = data.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise ValueError(
            f"unsupported plan format version {version!r}; expected {PLAN_FORMAT_VERSION}"
        )
    if model is None:
        model = model_zoo.get(data["model"])
    elif model.name != data["model"]:
        raise ValueError(
            f"plan was produced for model {data['model']!r}, got {model.name!r}"
        )
    devices = [
        DeviceInstance(
            device_id=entry["device_id"],
            dtype=get_device_type(entry["type"]),
            bandwidth_mbps=float(entry["bandwidth_mbps"]),
        )
        for entry in data["devices"]
    ]
    decisions = [
        SplitDecision(cuts=tuple(entry["cuts"]), output_height=int(entry["output_height"]))
        for entry in data["decisions"]
    ]
    return DistributionPlan(
        model=model,
        devices=devices,
        boundaries=[int(b) for b in data["boundaries"]],
        decisions=decisions,
        head_device=int(data["head_device"]),
        method=str(data["method"]),
    )


def save_plan(plan: DistributionPlan, path: Union[str, Path]) -> Path:
    """Write a plan to a JSON file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan), indent=2, sort_keys=True))
    return path


def load_plan(path: Union[str, Path], model: Optional[ModelSpec] = None) -> DistributionPlan:
    """Load a plan previously written by :func:`save_plan`."""
    data = json.loads(Path(path).read_text())
    return plan_from_dict(data, model=model)


def evaluation_to_dict(result: EvaluationResult) -> Dict:
    """Compact, JSON-serialisable summary of an evaluation result."""
    return {
        "method": result.method,
        "end_to_end_ms": result.end_to_end_ms,
        "ips": result.ips,
        "max_compute_ms": result.max_compute_ms,
        "max_transmission_ms": result.max_transmission_ms,
        "head_device": result.head_device,
        "head_compute_ms": result.head_compute_ms,
        "per_device_compute_ms": [float(v) for v in result.per_device_compute_ms],
        "per_device_send_ms": [float(v) for v in result.per_device_send_ms],
        "per_device_recv_ms": [float(v) for v in result.per_device_recv_ms],
    }


__all__ = [
    "PLAN_FORMAT_VERSION",
    "plan_to_dict",
    "plan_from_dict",
    "save_plan",
    "load_plan",
    "evaluation_to_dict",
]
