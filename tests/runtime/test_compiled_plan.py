"""Differential property test: compiled plans against the scalar dict walk.

:class:`~repro.runtime.batch.CompiledPlan` evaluates singleton batch groups
and the contended walk over a :class:`BatchPlanEvaluator`.  Its contract is
bit-identity with :class:`PlanEvaluator`'s dict walk, so every example here
compares every reported float with ``np.array_equal`` / ``==``, never with a
tolerance.  Examples are seeded small fleets (2-8 devices, every trace kind,
dynamic included) at ``t_seconds > 0``, with drawn cut decisions (zero-row
devices and heads on idle devices included), on a model with a dense head
(``small_vgg``) and one without (``yolov2``), under the ground-truth, a
profile and a custom (non-vectorisable) compute oracle, with input encodings
small enough to round some scatters to zero bytes.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.profiler import LatencyProfiler
from repro.devices.profiles import TabularProfile
from repro.devices.specs import get_device_type
from repro.experiments.scenarios import resolve_scenario
from repro.network.bandwidth import TRACE_KINDS
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator, plan_signature
from repro.runtime.contention import ContendedOutcome, ContentionAwareEvaluator, SharedFleetState
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.oracles import ProfileComputeOracle, profiles_by_device
from repro.runtime.plan import DistributionPlan
from repro.utils.cache import LRUCache

MODELS = {"small_vgg": lambda: model_zoo.small_vgg(64), "yolov2": lambda: model_zoo.yolov2(128)}
ORACLES = ("ground_truth", "profile", "custom")


@lru_cache(maxsize=None)
def _model(name):
    return MODELS[name]()


@lru_cache(maxsize=None)
def _fleet(n, trace, seed):
    return resolve_scenario(f"gen:n={n},seed={seed},trace={trace}").build(seed=seed)


@lru_cache(maxsize=None)
def _profile(model_name, device_type):
    profiler = LatencyProfiler(get_device_type(device_type), seed=0)
    return TabularProfile.from_points(
        profiler.profile_model(_model(model_name), heights_per_layer=8)
    )


class _RowsOracle:
    """A custom oracle: only the scalar per-part API, no vectorised path."""

    def __init__(self, devices):
        self.speed = [1.0 + 0.37 * j for j in range(len(devices))]

    def part_latency_ms(self, device_index, volume, part):
        return part.macs / 1e7 / self.speed[device_index] + 0.05 * len(volume.layers)

    def head_latency_ms(self, device_index, head_layers):
        return sum(layer.macs for layer in head_layers) / 1e6 / self.speed[device_index]


def _oracle(kind, model_name, devices):
    if kind == "ground_truth":
        return None
    if kind == "custom":
        return _RowsOracle(devices)
    per_type = {d.type_name: _profile(model_name, d.type_name) for d in devices}
    return ProfileComputeOracle(devices, profiles_by_device(devices, per_type))


@st.composite
def cases(draw):
    model_name = draw(st.sampled_from(sorted(MODELS)))
    model = _model(model_name)
    n = draw(st.integers(2, 8))
    trace = draw(st.sampled_from(TRACE_KINDS))
    seed = draw(st.integers(0, 7))
    devices, network = _fleet(n, trace, seed)
    interior = range(1, model.num_spatial_layers)
    cuts = draw(st.lists(st.sampled_from(interior), max_size=3, unique=True))
    boundaries = [0, *sorted(cuts), model.num_spatial_layers]
    decisions = []
    for volume in model.partition(boundaries):
        height = volume.output_height
        points = draw(st.lists(st.integers(0, height), min_size=n - 1, max_size=n - 1))
        decisions.append(SplitDecision(tuple(sorted(points)), height))
    head = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    plan = DistributionPlan(model, devices, boundaries, decisions, head_device=head, method="drawn")
    residual = st.one_of(st.just(0.0), st.floats(0.0, 80.0))
    return {
        "devices": devices,
        "network": network,
        "plan": plan,
        "oracle": draw(st.sampled_from(ORACLES)),
        # Tiny encodings round small scatters to zero-byte entries.
        "input_bytes": draw(st.sampled_from([0.4, 2.0, 1e-4])),
        "model_name": model_name,
        "t_seconds": draw(st.floats(0.001, 900.0)),
        "residuals": tuple(draw(st.lists(residual, min_size=3 * n, max_size=3 * n))),
        "gate_ms": draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0))),
    }


def _evaluators(case):
    devices, network = case["devices"], case["network"]
    oracle = _oracle(case["oracle"], case["model_name"], devices)
    options = {"compute_oracle": oracle, "input_bytes_per_element": case["input_bytes"]}
    return (
        BatchPlanEvaluator(devices, network, **options),
        PlanEvaluator(devices, network, **options),
    )


def _fleet_with(num_devices, residuals, gate_ms):
    """A fleet whose lanes sit at ``residuals`` and whose gate opens at
    ``gate_ms``, seen from a release at 0 under ``max_inflight=1``."""
    fleet = SharedFleetState(num_devices)
    lanes = len(residuals)
    fleet.commit(
        0.0,
        ContendedOutcome(
            latency_ms=gate_ms,
            lane_end_rel=residuals,
            lane_busy_ms=(0.0,) * lanes,
            lane_wait_ms=(0.0,) * lanes,
            lane_jobs=(1,) * lanes,
            gate_wait_ms=0.0,
            contended=False,
        ),
    )
    return fleet


def _contended(evaluator, case, residuals, gate_ms, memoize):
    return ContentionAwareEvaluator(
        evaluator,
        fleet=_fleet_with(len(case["devices"]), residuals, gate_ms),
        max_inflight=1,
        memoize=memoize,
    )


def assert_results_identical(fast, reference):
    for field in dataclasses.fields(reference):
        name = field.name
        if name == "volume_timings":
            continue
        a, b = getattr(fast, name), getattr(reference, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, (name, a, b)
    assert len(fast.volume_timings) == len(reference.volume_timings)
    for vt_fast, vt_ref in zip(fast.volume_timings, reference.volume_timings):
        assert vt_fast.volume_index == vt_ref.volume_index
        for name in ("ready_ms", "finish_ms", "compute_ms", "recv_bytes"):
            assert np.array_equal(getattr(vt_fast, name), getattr(vt_ref, name)), name


def assert_outcomes_identical(fast, reference):
    for field in dataclasses.fields(ContendedOutcome):
        assert getattr(fast, field.name) == getattr(reference, field.name), field.name


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=cases())
def test_compiled_plan_matches_dict_walk(case):
    plan, t = case["plan"], case["t_seconds"]
    batch, scalar = _evaluators(case)
    idle = scalar.evaluate(plan, t)
    assert_results_identical(batch.evaluate(plan, t), idle)

    residuals, gate = case["residuals"], case["gate_ms"]
    fast = _contended(batch, case, residuals, gate, memoize=True)
    reference = _contended(scalar, case, residuals, gate, memoize=False)
    outcome = fast.predict(plan, 0.0, t)
    assert outcome.gate_wait_ms == gate
    assert_outcomes_identical(outcome, reference.predict(plan, 0.0, t))
    fast_result, fast_outcome = fast.evaluate_contended(plan, 0.0, t)
    ref_result, ref_outcome = reference.evaluate_contended(plan, 0.0, t)
    assert_results_identical(fast_result, ref_result)
    assert_outcomes_identical(fast_outcome, ref_outcome)
    # Contention never speeds a request up ...
    assert outcome.latency_ms >= idle.end_to_end_ms

    # ... and an idle fleet reproduces the uncontended evaluation exactly.
    zeros = (0.0,) * len(residuals)
    idle_fleet = _contended(batch, case, zeros, 0.0, memoize=True)
    assert idle_fleet.predict(plan, 0.0, t).latency_ms == idle.end_to_end_ms


def test_compiled_plans_are_cached_per_structure():
    devices, network = _fleet(4, "dynamic", 1)
    model = _model("small_vgg")
    boundaries = [0, 6, model.num_spatial_layers]
    plans = [
        DistributionPlan(
            model,
            devices,
            boundaries,
            [SplitDecision.equal(4, v.output_height) for v in model.partition(boundaries)],
            method=method,
        )
        for method in ("a", "b")
    ]
    evaluator = BatchPlanEvaluator(devices, network, cache_size=8)
    # Equal structure, different objects and labels: one compiled plan.
    assert evaluator.compiled_plan(plans[0]) is evaluator.compiled_plan(plans[1])
    results = [evaluator.evaluate(plans[1], t) for t in (1.0, 2.0, 3.0)]
    assert [r.method for r in results] == ["b"] * 3
    assert len(evaluator._compiled) == 1


def test_contention_plan_signature_map_is_bounded():
    """Regression: the contended evaluator pinned every plan it dispatched."""
    devices, network = _fleet(3, "constant", 0)
    model = _model("small_vgg")
    boundaries = model.single_volume_partition()
    height = model.partition(boundaries)[0].output_height
    engine = ContentionAwareEvaluator(BatchPlanEvaluator(devices, network), cache_size=4)
    plans = [
        DistributionPlan(model, devices, boundaries, [SplitDecision((a, b), height)])
        for a in range(height + 1)
        for b in range(a, height + 1)
    ]
    assert len(plans) > 4
    for release, plan in enumerate(plans):
        engine.evaluate(plan, release_ms=100.0 * release)
    assert isinstance(engine._plan_sigs, LRUCache)
    assert len(engine._plan_sigs) == 4
    # An entry left under a recycled id is checked by identity, not trusted.
    engine._plan_sigs.put(id(plans[1]), (plans[0], plan_signature(plans[0])))
    assert engine._plan_signature(plans[1]) == plan_signature(plans[1])
