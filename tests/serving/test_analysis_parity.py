"""Analysis-level parity: attribution and alert timelines are byte-identical.

One level above trace parity: ``run_with_parity(compare_analysis=True)``
feeds both loops' traces through the critical-path analyzer and the SLO
burn-rate monitor, asserts every request's latency tiling telescopes
bit-exactly to its committed latency, and compares the rendered
attribution and alert timelines line for line.  These tests drive that
contract through every parity-suite scenario shape — churn + predictive
admission, wfq + max_inflight contention and the array engine — and then
re-run the analyzer on the kept tracer to pin
non-vacuity (real requests, real lanes, real contention).
"""

from __future__ import annotations

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer
from repro.obs.analysis import analyze_serving
from repro.obs.slo import SLOMonitor
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    PoissonArrivals,
    TenantSpec,
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


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


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


def assert_analysis_nonvacuous(report, tracer, *, want_lanes=True):
    """The parity pass already asserted exactness; pin that it saw real work."""
    analysis = analyze_serving(report, tracer)
    analysis.check_exact()
    assert analysis.num_requests == report.total_completed > 0
    if want_lanes:
        assert analysis.lanes, "contended run attributed no lane time"
        assert analysis.contended_requests > 0
    return analysis


class TestAnalysisParity:
    def test_churn_plus_predictive_admission(self, model, fleet):
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
            compare_analysis=True,
        )
        analysis = assert_analysis_nonvacuous(report, tracer)
        assert report.faults is not None and report.faults.num_crashes == 1
        # The fault path is visible in the rollups, not just the report.
        assert analysis.total("retries") + analysis.total("abandons") > 0

    def test_array_engine_matches_reference_interpretation(self, model, fleet):
        """Independent churned serving: the array engine's trace interprets
        exactly like the reference loop's."""
        devices, network = fleet
        tracer = Tracer()
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants_for(model, devices),
            duration_s=2.0,
            faults=CHURN,
            retry=RETRY,
            tracer=tracer,
            compare_analysis=True,
        )
        assert_analysis_nonvacuous(report, tracer, want_lanes=False)
        assert report.faults is not None and report.faults.num_crashes == 1

    def test_wfq_with_max_inflight_gate(self, model, fleet):
        devices, network = fleet
        tracer = Tracer()
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants_for(model, devices),
            duration_s=2.0,
            policy=ClusterPolicy(discipline="wfq", max_inflight=2),
            tracer=tracer,
            compare_analysis=True,
        )
        analysis = assert_analysis_nonvacuous(report, tracer)
        # The inflight gate actually throttled someone.
        assert analysis.total("gate") > 0.0

    def test_alert_timeline_is_reproducible_from_the_report(self, model, fleet):
        """The timeline compared inside the parity run is a pure function."""
        devices, network = fleet
        report = run_with_parity(
            BatchPlanEvaluator(devices, network),
            PlanEvaluator(devices, network),
            tenants_for(model, devices),
            duration_s=2.0,
            policy=POLICY,
            faults=CHURN,
            retry=RETRY,
            compare_analysis=True,
        )
        monitor = SLOMonitor()
        assert monitor.evaluate(report).lines() == monitor.evaluate(report).lines()
