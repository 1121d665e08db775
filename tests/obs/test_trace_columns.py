"""Differential test of the column trace store against the tuple path it replaced.

A :class:`Tracer` keeps each committed report's request lifecycle as
columns, sorts derived and live rows together with one ``np.lexsort`` and
exports the Chrome JSON from the sorted columns; the attribution tiles
requests from the same columns.  The ``reference_trace`` fixture
(``tests/conftest.py``) is the old path: one :class:`TraceEvent` per row,
``sorted()``, a per-event export and a per-event attribution loop.  Every
byte must agree: ``lines()``, the Chrome JSON text and the attribution,
inline, over tuples and after a JSON round trip.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer, events_from_chrome
from repro.obs.analysis import analyze_chrome, analyze_events, analyze_trace
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import SLO, ClusterPolicy, PoissonArrivals, ServingSimulator, TenantSpec


def assert_matches_reference(reference, tracer: Tracer) -> None:
    """Compare every view of ``tracer`` with the tuple path on the same rows.

    Must run before anything reads ``tracer.events`` (which would
    materialise the columns): the reference rebuilds the old event list
    from the live records and the deferred reports.
    """
    events = list(tracer._events)
    for report in tracer._pending_reports:
        events += reference.derive(report)
    assert tracer.lines() == reference.lines(events)
    chrome = json.dumps(tracer.to_chrome())
    assert chrome == json.dumps(reference.to_chrome(events))

    expected = reference.analyze(sorted(events))
    for analysis in (analyze_trace(tracer), analyze_events(sorted(events))):
        assert analysis.lines() == expected.lines()
        assert json.dumps(analysis.to_dict()) == json.dumps(expected.to_dict())
    reimported = json.loads(chrome)
    assert (
        analyze_chrome(reimported).lines()
        == reference.analyze(events_from_chrome(reimported)).lines()
    )


def _fleet(num_devices: int):
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70), ("nano", 70)][:num_devices])
    return devices, NetworkModel.constant_from_devices(devices)


def _tenants(devices, second_queue_capacity=None, slots=1):
    model = model_zoo.small_vgg(64)
    return [
        TenantSpec(
            "alpha",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(150.0, seed=3),
            slo=SLO(deadline_ms=25.0),
            weight=2.0,
            slots=slots,
        ),
        TenantSpec(
            "beta",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(100.0, seed=4),
            slo=SLO(deadline_ms=40.0),
            queue_capacity=second_queue_capacity,
            slots=slots,
        ),
    ]


CONTENDED = ClusterPolicy(
    discipline="wfq", admission="predictive", on_predicted_miss="requeue", max_inflight=4
)
RETRY = RetryPolicy(max_attempts=3, backoff_ms=20.0, jitter_ms=5.0, seed=7)


def test_trace_schema_scenario(reference_trace):
    """The run ``tests/serving/test_trace_schema.py`` pins the taxonomy of."""
    devices, network = _fleet(3)
    tracer = Tracer()
    ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        _tenants(devices, second_queue_capacity=8),
        duration_s=2.0,
        policy=CONTENDED,
        faults="churn:events=crash:0@200;join:0@900",
        retry=RETRY,
        tracer=tracer,
    )
    assert_matches_reference(reference_trace, tracer)


def test_contended_churned_and_retried_runs_share_one_tracer(reference_trace):
    """Lane spans, dispatches, retries and retry chains; two reports whose
    tenants share names, so each lifecycle stream spans two blocks."""
    devices, network = _fleet(4)
    tracer = Tracer()
    churn = "churn:events=crash:0@120;leave:1@400;join:0@900"
    ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        _tenants(devices), duration_s=2.0, policy=CONTENDED, faults=churn, retry=RETRY,
        tracer=tracer,
    )
    ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        _tenants(devices, slots=2), duration_s=2.0, faults=churn, retry=RETRY, tracer=tracer,
    )
    names = {(event.kind, event.name) for event in tracer._events}
    assert {("request", "dispatch"), ("fault", "retry"), ("fault", "retry_chain")} <= names
    assert any(kind == "lane" for kind, _ in names)
    assert len(tracer._pending_reports) == 2
    assert_matches_reference(reference_trace, tracer)


# Few distinct values, so rows tie on every sort key but their args.
instants_s = st.lists(st.sampled_from([0.0, 0.001, 0.002]), max_size=3)
request = st.tuples(
    st.sampled_from([-0.0, 0.0, 0.001, 0.002]),  # arrival
    st.sampled_from([0.0, 0.0005, 0.001]),  # queue wait
    st.sampled_from([0.0, 0.5, 1.0]),  # latency
    st.sampled_from([0.001, 0.002]),  # completion after start
    st.sampled_from([1.0, 2.0]),  # response
    st.booleans(),  # deadline missed
)
tenant_rows = st.tuples(
    st.lists(request, max_size=6), instants_s, instants_s, instants_s, instants_s, instants_s
)
live_event = st.one_of(
    st.tuples(st.just("complete"), st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([1.0, 2.0, 1])),
    st.tuples(st.just("dispatch"), st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.sampled_from([0.0, 0.25])),
    st.tuples(st.just("lane"), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.25, 0.5])),
    st.tuples(st.sampled_from(["requeue", "retry", "crash"]), st.sampled_from([0.0, 1.0]), st.just(0.5)),
)


def _report(tenants_rows):
    tenants = []
    for i, (rows, rejected, denied, shed, abandoned, replans) in enumerate(tenants_rows):
        arrival, wait, latency, service, response, missed = (
            np.array(column, dtype=float) for column in zip(*rows)
        ) if rows else (np.zeros(0),) * 6
        start = arrival + wait
        tenants.append(SimpleNamespace(
            name=f"t{i}", arrival_s=arrival, start_s=start, completion_s=start + service,
            latency_ms=latency, response_ms=response, deadline_missed=missed.astype(bool),
            rejected_times_s=rejected, denied_times_s=denied, shed_times_s=shed,
            abandoned_times_s=abandoned, replan_times_s=replans,
        ))
    return SimpleNamespace(tenants=tenants)


def _emit(tracer: Tracer, tenant: str, event) -> None:
    kind, ts, value = event
    track = f"tenant:{tenant}"
    if kind == "complete":  # ties with the derived completions but for args
        tracer.instant(ts, track, "request", "complete", deadline_missed=False, response_ms=value)
    elif kind == "dispatch":
        tracer.instant(ts, track, "request", "dispatch", contended=True, gate_wait_ms=value,
                       latency_ms=1.0, truncated=False)
    elif kind == "lane":
        tracer.span(ts, value, "lane:d0:compute", "lane", "compute", jobs=1, tenant=tenant,
                    wait_ms=0.0)
    elif kind == "crash":
        tracer.instant(ts, "fleet", "fault", "crash", device="d0")
    else:
        tracer.instant(ts, track, "admission" if kind == "requeue" else "fault", kind,
                       delay_ms=value)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    tenants_rows=st.lists(tenant_rows, min_size=1, max_size=3),
    live=st.lists(st.tuples(st.integers(0, 2), live_event), max_size=8),
)
def test_generated_reports_with_forced_ties(reference_trace, tenants_rows, live):
    tracer = Tracer()
    for tenant, event in live:
        _emit(tracer, f"t{tenant % len(tenants_rows)}", event)
    tracer.defer_report(_report(tenants_rows))
    assert_matches_reference(reference_trace, tracer)
