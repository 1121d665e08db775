"""Distributed-inference runtime simulator.

Models the paper's execution setup (Section V-A): a service requester streams
images one at a time (an image is not sent before the previous image's result
has returned), service providers hold their pre-loaded split-part weights and
run three concurrent activities — receiving, computing, transmitting — and
all traffic flows through a WiFi router.

* :mod:`repro.runtime.plan` — the :class:`DistributionPlan` data model
  (partition scheme + per-volume split decisions + head placement) and the
  redistribution-volume arithmetic shared with the cost models.
* :mod:`repro.runtime.lanes` — per-device send/receive/compute lane
  bookkeeping (the three threads of the testbed).
* :mod:`repro.runtime.evaluator` — the single-image end-to-end latency
  evaluator with per-volume accumulated latencies and compute/transmission
  breakdowns.
* :mod:`repro.runtime.batch` — the batched evaluation engine: vectorised
  scheduling of many plans at once plus the LRU evaluation cache every
  planner routes through.
* :mod:`repro.runtime.streaming` — the image-stream simulator producing the
  paper's IPS metric and per-image latency series over a bandwidth trace.
"""

from repro.runtime.plan import (
    DistributionPlan,
    VolumeAssignment,
    redistribution_bytes,
    scatter_bytes,
)
from repro.runtime.lanes import Lane, LaneSet
from repro.runtime.evaluator import EvaluationResult, PlanEvaluator, VolumeTiming
from repro.runtime.batch import BatchPlanEvaluator, network_state_signature, plan_signature
from repro.runtime.oracles import MemoizedComputeOracle
from repro.runtime.streaming import StreamingResult, StreamingSimulator

__all__ = [
    "DistributionPlan",
    "VolumeAssignment",
    "redistribution_bytes",
    "scatter_bytes",
    "Lane",
    "LaneSet",
    "PlanEvaluator",
    "BatchPlanEvaluator",
    "MemoizedComputeOracle",
    "network_state_signature",
    "plan_signature",
    "EvaluationResult",
    "VolumeTiming",
    "StreamingSimulator",
    "StreamingResult",
]
