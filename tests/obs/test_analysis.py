"""Critical-path attribution unit tests: tiling, rollups, exactness.

The end-to-end parity of the analysis (byte-identical across the
reference, batched and array loops, exact on every parity-suite scenario)
lives in ``tests/serving/test_analysis_parity.py``; here the pass itself
is pinned on hand-built canonical event streams where every expected
segment boundary is known in advance.
"""

from __future__ import annotations

import json

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer
from repro.obs.analysis import (
    AnalysisError,
    RequestAttribution,
    Segment,
    analyze_events,
    analyze_serving,
    analyze_trace,
)
from repro.obs.trace import TraceEvent
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
)


def ev(ts, track, kind, name, dur=0.0, **args):
    return TraceEvent(ts, track, kind, name, dur, tuple(sorted(args.items())))


def contended_request(tenant, start, latency, gate=0.0, queue=0.0, spans=()):
    """One request's canonical events: queue + serve + dispatch + lanes.

    ``spans`` are ``(offset_ms, dur_ms, device, role, wait_ms)`` relative
    to the dispatch release.
    """
    track = f"tenant:{tenant}"
    events = [
        ev(start - queue, track, "request", "queue", dur=queue),
        ev(start, track, "request", "serve", dur=latency, latency_ms=latency),
        ev(start, track, "request", "dispatch",
           gate_wait_ms=gate, latency_ms=latency, contended=True),
        ev(start + latency, track, "request", "complete",
           deadline_missed=False, response_ms=queue + latency),
    ]
    for offset, dur, device, role, wait in spans:
        events.append(
            ev(start + offset, f"lane:{device}:{role}", "lane", role,
               dur=dur, tenant=tenant, wait_ms=wait, jobs=1)
        )
    return events


class TestTiling:
    def test_gate_lanes_and_stall_tile_exactly(self):
        events = contended_request(
            "a", start=100.0, latency=10.0, gate=2.0, queue=1.5,
            spans=[(2.0, 5.0, "d0", "compute", 1.0), (7.0, 2.0, "d0", "send", 0.0)],
        )
        report = analyze_events(events)
        (request,) = report.requests
        assert [
            (s.label, s.start_ms, s.end_ms) for s in request.segments
        ] == [
            ("gate", 0.0, 2.0),
            ("compute", 2.0, 7.0),
            ("send", 7.0, 9.0),
            ("stall", 9.0, 10.0),
        ]
        assert request.by_label == {
            "gate": 2.0, "compute": 5.0, "send": 2.0, "stall": 1.0
        }
        assert request.queue_ms == 1.5
        assert request.lane_wait_ms == 1.0
        assert request.contended
        request.check_exact()

    def test_uncontended_request_is_one_service_segment(self):
        track = "tenant:a"
        events = [
            ev(5.0, track, "request", "queue", dur=0.0),
            ev(5.0, track, "request", "serve", dur=8.0, latency_ms=8.0),
            ev(13.0, track, "request", "complete",
               deadline_missed=False, response_ms=8.0),
        ]
        (request,) = analyze_events(events).requests
        assert request.segments == [Segment("service", "", 0.0, 8.0)]
        assert not request.contended
        request.check_exact()

    def test_overlap_tie_break_prefers_compute(self):
        # compute [0,4] and send [2,6] overlap on [2,4]: compute wins there.
        events = contended_request(
            "a", start=0.0, latency=6.0,
            spans=[(0.0, 4.0, "d0", "compute", 0.0), (2.0, 4.0, "d0", "send", 0.0)],
        )
        (request,) = analyze_events(events).requests
        assert [(s.label, s.start_ms, s.end_ms) for s in request.segments] == [
            ("compute", 0.0, 4.0),
            ("send", 4.0, 6.0),
        ]

    def test_spans_clamped_into_latency_window(self):
        # A lane span sticking past the latency (ulp wobble from a Chrome
        # re-import) must not break the telescoping chain.
        events = contended_request(
            "a", start=0.0, latency=5.0,
            spans=[(4.0, 2.0, "d0", "compute", 0.0)],
        )
        (request,) = analyze_events(events).requests
        assert request.segments[-1] == Segment("compute", "lane:d0:compute", 4.0, 5.0)
        request.check_exact()

    def test_zero_latency_request_closes_the_chain(self):
        track = "tenant:a"
        events = [
            ev(1.0, track, "request", "queue", dur=0.0),
            ev(1.0, track, "request", "serve", dur=0.0, latency_ms=0.0),
        ]
        (request,) = analyze_events(events).requests
        request.check_exact()
        assert request.attributed_ms == 0.0


class TestExactness:
    def test_check_exact_rejects_a_gapped_tiling(self):
        request = RequestAttribution(
            "a", 0, 0.0, 10.0, 0.0, True, 0.0, 0.0,
            [Segment("gate", "", 0.0, 2.0), Segment("stall", "", 3.0, 10.0)],
        )
        with pytest.raises(AssertionError, match="gap"):
            request.check_exact()
        assert not request.exact

    def test_check_exact_rejects_a_short_tiling(self):
        request = RequestAttribution(
            "a", 0, 0.0, 10.0, 0.0, True, 0.0, 0.0,
            [Segment("service", "", 0.0, 9.0)],
        )
        with pytest.raises(AssertionError, match="ends at"):
            request.check_exact()

    def test_check_exact_is_bitwise_not_approximate(self):
        # 0.1 + 0.2 != 0.3 in IEEE754: a numerically-plausible boundary
        # that is off by one ulp must fail.
        request = RequestAttribution(
            "a", 0, 0.0, 0.3, 0.0, True, 0.0, 0.0,
            [Segment("gate", "", 0.0, 0.1 + 0.2)],
        )
        with pytest.raises(AssertionError):
            request.check_exact()


    @pytest.mark.parametrize(
        "start, end, latency, exact",
        [
            (-0.0, 1.0, 1.0, False),  # repr(-0.0) != repr(0.0)
            (0.0, -0.0, 0.0, False),
            (0.0, float("nan"), float("nan"), True),  # any NaN reprs as nan
            (0.0, 0.1 + 0.2, 0.30000000000000004, True),
        ],
    )
    def test_boundaries_compare_with_repr_equality(self, start, end, latency, exact):
        request = RequestAttribution(
            "a", 0, 0.0, latency, 0.0, False, 0.0, 0.0,
            [Segment("service", "", start, end)],
        )
        assert request.exact is exact


class TestRollups:
    def test_tenant_rollup_sums_requests_and_counts_instants(self):
        track = "tenant:a"
        events = (
            contended_request("a", 0.0, 10.0, gate=2.0, queue=1.0,
                              spans=[(2.0, 8.0, "d0", "compute", 0.5)])
            + contended_request("a", 50.0, 4.0,
                                spans=[(0.0, 4.0, "d0", "compute", 0.0)])
            + [
                ev(3.0, track, "admission", "reject"),
                ev(4.0, track, "admission", "deny"),
                ev(5.0, track, "admission", "requeue"),
                ev(6.0, track, "fault", "shed"),
                ev(7.0, track, "fault", "abandon"),
                ev(8.0, track, "fault", "retry", attempt=2, delay_ms=25.0),
                ev(9.0, track, "control", "replan", live=3),
            ]
        )
        report = analyze_events(events)
        tenant = report.tenant("a")
        assert tenant.requests == 2
        assert tenant.latency_ms == 14.0
        assert tenant.queue_ms == 1.0
        assert tenant.by_label["compute"] == 12.0
        assert tenant.by_label["gate"] == 2.0
        assert (tenant.rejects, tenant.denies, tenant.requeues) == (1, 1, 1)
        assert (tenant.sheds, tenant.abandons, tenant.replans) == (1, 1, 1)
        assert tenant.retries == 1
        assert tenant.retry_backoff_ms == 25.0
        assert tenant.dominant == "compute"
        assert report.total("latency_ms") == 14.0
        assert report.total("compute") == 12.0

    def test_retry_chain_rolls_up_lost_attempts(self):
        track = "tenant:a"
        events = contended_request("a", 0.0, 5.0) + [
            ev(5.0, track, "fault", "retry_chain",
               attempts=3, retry_added_ms=70.0, lost_attempts=2),
        ]
        tenant = analyze_events(events).tenant("a")
        assert tenant.retries == 2
        assert tenant.retry_backoff_ms == 70.0
        assert tenant.lost_attempts == 2

    def test_truncated_attempt_is_occupancy_not_critical_path(self):
        # A crashed attempt's dispatch (truncated) and its lane span: the
        # span counts in lane busy_ms, never in any request's tiling.
        track = "tenant:a"
        events = [
            ev(0.0, track, "request", "dispatch",
               gate_wait_ms=0.0, latency_ms=3.0, contended=True, truncated=True),
            ev(0.0, "lane:d0:compute", "lane", "compute",
               dur=3.0, tenant="a", wait_ms=0.0, jobs=1),
        ] + contended_request("a", 10.0, 4.0,
                              spans=[(0.0, 4.0, "d0", "compute", 0.0)])
        report = analyze_events(events)
        assert report.truncated_attempts == 1
        (request,) = report.requests
        assert request.by_label == {"compute": 4.0}
        (lane,) = report.lanes
        assert lane.busy_ms == 7.0  # both spans occupy the lane...
        assert lane.critical_ms == 4.0  # ...only the served one is critical
        assert report.tenant("a").lost_attempt_ms == 3.0

    def test_bottleneck_ranking_orders_by_critical_ms(self):
        events = contended_request(
            "a", 0.0, 10.0,
            spans=[(0.0, 7.0, "d1", "compute", 0.0), (7.0, 3.0, "d0", "send", 0.0)],
        )
        report = analyze_events(events)
        assert [lane.lane for lane in report.lanes] == [
            "lane:d1:compute", "lane:d0:send"
        ]
        assert report.bottleneck == "lane:d1:compute"
        assert report.lanes[0].share == 0.7
        assert report.lanes[1].share == pytest.approx(0.3)

    def test_unknown_tenant_raises_keyerror(self):
        report = analyze_events(contended_request("a", 0.0, 1.0))
        with pytest.raises(KeyError):
            report.tenant("nope")


class TestErrorPaths:
    def test_mismatched_queue_serve_counts_raise(self):
        track = "tenant:a"
        events = [
            ev(0.0, track, "request", "queue", dur=0.0),
            ev(0.0, track, "request", "queue", dur=0.0),
            ev(0.0, track, "request", "serve", dur=1.0, latency_ms=1.0),
        ]
        with pytest.raises(AnalysisError, match="queue spans"):
            analyze_events(events)

    def test_empty_stream_is_an_empty_report(self):
        report = analyze_events([])
        assert report.num_requests == 0
        assert report.exact
        assert report.bottleneck == ""
        assert report.lines() == ["truncated_attempts 0"]


@pytest.fixture(scope="module")
def contended_run():
    model = model_zoo.small_vgg(64)
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70)])
    network = NetworkModel.constant_from_devices(devices)
    tenants = [
        TenantSpec(
            "alpha",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(120.0, seed=3),
            slo=SLO(deadline_ms=40.0),
            weight=2.0,
        ),
        TenantSpec(
            "beta",
            DistributionPlan.single_device(model, devices, 1),
            traffic=PoissonArrivals(80.0, seed=4),
            slo=SLO(deadline_ms=60.0),
        ),
    ]
    policy = ClusterPolicy(discipline="wfq", max_inflight=2)
    tracer = Tracer()
    report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        tenants, duration_s=2.0, policy=policy, tracer=tracer
    )
    return report, tracer


class TestEndToEnd:
    def test_every_request_attributes_exactly(self, contended_run):
        report, tracer = contended_run
        analysis = analyze_serving(report, tracer)
        assert analysis.num_requests == report.total_completed
        analysis.check_exact()
        assert analysis.exact

    def test_rollups_agree_with_the_committed_report(self, contended_run):
        report, tracer = contended_run
        analysis = analyze_serving(report, tracer)
        for tenant in report.tenants:
            rollup = analysis.tenant(tenant.name)
            assert rollup.requests == tenant.num_completed
            assert rollup.latency_ms == pytest.approx(float(tenant.latency_ms.sum()))
            assert rollup.response_ms == pytest.approx(float(tenant.response_ms.sum()))

    def test_report_only_analysis_is_service_only_but_exact(self, contended_run):
        report, _ = contended_run
        analysis = analyze_serving(report)  # no tracer: derived trace only
        assert analysis.exact
        assert analysis.lanes == []
        assert all(r.segments[0].label == "service" for r in analysis.requests)

    def test_mismatched_report_and_trace_raise(self, contended_run):
        report, tracer = contended_run
        other = Tracer()
        # A self-consistent one-request trace for alpha — but the report
        # committed more, so the cross-check must refuse the pairing.
        other.instant(0.0, "tenant:alpha", "request", "queue")
        other.span(0.0, 1.0, "tenant:alpha", "request", "serve", latency_ms=1.0)
        with pytest.raises(AnalysisError, match="different runs"):
            analyze_serving(report, other)

    def test_analyze_trace_equals_analyze_serving(self, contended_run):
        report, tracer = contended_run
        assert analyze_trace(tracer).lines() == analyze_serving(report, tracer).lines()

    def test_to_dict_is_json_serialisable(self, contended_run):
        report, tracer = contended_run
        payload = analyze_serving(report, tracer).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["exact"] is True
        assert payload["bottleneck"].startswith("lane:")
