"""Trace-level parity: every loop's trace is byte-identical.

The report-level parity contract says the reference and batched loops
commit the same floats.  The trace-level contract asserted
here is stronger in surface area: the *entire event stream* — derived
lifecycle events plus the live-emitted contended lane segments, requeues,
retry chains and fault timeline — must serialise to identical bytes
(:meth:`Tracer.lines`) across loops, on a scenario that exercises churn,
contention and predictive admission at once.  ``run_with_parity`` now
checks this by default; these tests pin the mechanism itself.
"""

from __future__ import annotations

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    ParityMismatch,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
    assert_traces_equal,
    run_with_parity,
)

CHURN = "churn:events=crash:0@120;leave:1@400;join:0@900"
RETRY = RetryPolicy(max_attempts=3, backoff_ms=20.0, jitter_ms=5.0, seed=7)
POLICY = ClusterPolicy(
    discipline="wfq",
    admission="predictive",
    on_predicted_miss="requeue",
    max_inflight=4,
)


@pytest.fixture(scope="module")
def fleet():
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70), ("nano", 70)])
    return devices, NetworkModel.constant_from_devices(devices)


def tenants_for(model, devices):
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
            slo=SLO(deadline_ms=60.0),
            weight=1.0,
        ),
    ]


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


class TestTraceParity:
    def test_object_engine_trace_parity_under_churned_admission(self, model, fleet):
        devices, network = fleet
        tracer = Tracer()
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants_for(model, devices),
            duration_s=2.0,
            policy=POLICY,
            faults=CHURN,
            retry=RETRY,
            tracer=tracer,
        )
        # The passed tracer holds the batched loop's trace after the run.
        assert tracer.events, "parity run produced an empty trace"
        assert report.faults is not None and report.faults.num_crashes == 1
        kinds = {(e.kind, e.name) for e in tracer.events}
        assert ("fault", "crash") in kinds
        assert ("request", "serve") in kinds

    def test_array_engine_trace_parity_under_churned_admission(self, model, fleet):
        devices, network = fleet
        tracer = Tracer()
        run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants_for(model, devices),
            duration_s=2.0,
            faults=CHURN,
            retry=RETRY,
            tracer=tracer,
        )
        assert tracer.events

    def test_independent_runs_trace_identically(self, model, fleet):
        """Two separate simulators, any modes: same bytes, line for line."""
        devices, network = fleet
        traces = []
        for mode in ("batched", "reference"):
            tracer = Tracer()
            ServingSimulator(BatchPlanEvaluator(devices, network)).run(
                tenants_for(model, devices),
                duration_s=2.0,
                mode=mode,
                policy=POLICY,
                faults=CHURN,
                retry=RETRY,
                tracer=tracer,
            )
            traces.append(tracer)
        assert_traces_equal(traces[0], traces[1])
        assert traces[0].lines() == traces[1].lines()

    def test_assert_traces_equal_catches_a_single_flipped_bit(self):
        a, b = Tracer(), Tracer()
        a.instant(1.0, "tenant:x", "request", "arrive")
        b.instant(1.0 + 1e-12, "tenant:x", "request", "arrive")
        with pytest.raises(ParityMismatch):
            assert_traces_equal(a, b)

    def test_run_with_parity_rejects_a_dirty_tracer(self, model, fleet):
        devices, network = fleet
        dirty = Tracer()
        dirty.instant(0.0, "tenant:x", "request", "arrive")
        with pytest.raises(ValueError):
            run_with_parity(
                BatchPlanEvaluator(devices, network),
                PlanEvaluator(devices, network),
                tenants_for(model, devices),
                duration_s=0.5,
                tracer=dirty,
            )
