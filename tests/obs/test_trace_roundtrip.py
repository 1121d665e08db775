"""Chrome trace-event export round-trip under churn + predictive admission.

``repro analyze --trace-json`` re-imports what ``repro serve --trace-json``
exported, so the export must be lossless where it matters: every event
comes back (count and identity), track grouping survives the pid/tid
mapping, the stream stays canonically ordered with monotonic timestamps,
and the args — which carry the attribution's exactness anchors
(``latency_ms`` / ``gate_wait_ms``) — round-trip bit-for-bit through
JSON.  Timestamps pass through the microsecond conversion and may wobble
by an ulp; they are compared approximately, never bitwise.
"""

from __future__ import annotations

import json

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer, events_from_chrome
from repro.obs.analysis import analyze_chrome, analyze_serving
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import (
    SLO,
    ClusterPolicy,
    PoissonArrivals,
    ServingSimulator,
    TenantSpec,
)

CHURN = "churn:events=crash:0@120;leave:1@400;join:0@900"


@pytest.fixture(scope="module")
def traced_run():
    """A contended run with churn and predictive admission, traced live."""
    model = model_zoo.small_vgg(64)
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70), ("nano", 70)])
    network = NetworkModel.constant_from_devices(devices)
    tenants = [
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
        ),
    ]
    policy = ClusterPolicy(
        discipline="wfq",
        admission="predictive",
        on_predicted_miss="requeue",
        max_inflight=4,
    )
    tracer = Tracer()
    report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        tenants,
        duration_s=2.0,
        policy=policy,
        faults=CHURN,
        retry=RetryPolicy(max_attempts=3, backoff_ms=20.0, jitter_ms=5.0, seed=7),
        tracer=tracer,
    )
    return report, tracer


@pytest.fixture(scope="module")
def roundtrip(traced_run):
    _, tracer = traced_run
    # Through actual JSON text, as the CLI file write/read does.
    data = json.loads(json.dumps(
        tracer.to_chrome(provenance={"repro_version": "x", "argv": [], "scenario": None})
    ))
    return tracer.sorted_events(), events_from_chrome(data), data


class TestRoundTrip:
    def test_every_event_comes_back(self, roundtrip):
        original, reimported, _ = roundtrip
        assert len(reimported) == len(original)
        # Identity (track, kind, name) survives as an exact multiset.
        assert sorted((e.track, e.kind, e.name) for e in reimported) == sorted(
            (e.track, e.kind, e.name) for e in original
        )

    def test_args_roundtrip_bit_exactly(self, roundtrip):
        original, reimported, _ = roundtrip
        # JSON emits shortest-repr floats, which parse back to the same
        # bits — the exactness anchors of the attribution.
        assert sorted(e.args for e in reimported) == sorted(
            e.args for e in original
        )

    def test_timestamps_monotonic_and_close(self, roundtrip):
        original, reimported, _ = roundtrip
        ts = [e.ts_ms for e in reimported]
        assert ts == sorted(ts)
        # The µs conversion can wobble a timestamp by an ulp, which may
        # reorder events inside a near-tie group — so pair by identity
        # (track/kind/name/args round-trip exactly), not by index.
        def by_identity(events):
            groups = {}
            for e in events:
                groups.setdefault((e.track, e.kind, e.name, e.args), []).append(
                    (e.ts_ms, e.dur_ms)
                )
            return {key: sorted(val) for key, val in groups.items()}

        a, b = by_identity(original), by_identity(reimported)
        assert a.keys() == b.keys()
        for key, pairs in a.items():
            for (ts_a, dur_a), (ts_b, dur_b) in zip(pairs, b[key]):
                assert ts_b == pytest.approx(ts_a, rel=1e-12, abs=1e-9)
                assert dur_b == pytest.approx(dur_a, rel=1e-12, abs=1e-9)

    def test_track_grouping_survives_the_pid_tid_mapping(self, roundtrip):
        original, _, data = roundtrip
        threads = {
            (m["pid"], m["tid"]): m["args"]["name"]
            for m in data["traceEvents"]
            if m.get("ph") == "M" and m.get("name") == "thread_name"
        }
        # One thread per track, and every track of the original stream is
        # named — lanes, tenants, fleet and control alike.
        assert len(set(threads.values())) == len(threads)
        assert set(threads.values()) == {e.track for e in original}
        # Tracks of one family share a process.
        pid_of = {name: pid for (pid, _), name in threads.items()}
        tenant_pids = {pid for name, pid in pid_of.items() if name.startswith("tenant:")}
        lane_pids = {pid for name, pid in pid_of.items() if name.startswith("lane:")}
        assert len(tenant_pids) == 1 and len(lane_pids) == 1
        assert tenant_pids != lane_pids

    def test_churn_and_admission_events_survive(self, roundtrip):
        _, reimported, _ = roundtrip
        kinds = {(e.kind, e.name) for e in reimported}
        assert ("fault", "crash") in kinds
        assert ("request", "dispatch") in kinds
        assert ("lane", "compute") in kinds

    def test_provenance_is_carried_but_ignored_by_import(self, roundtrip):
        _, reimported, data = roundtrip
        assert data["provenance"]["repro_version"] == "x"
        assert all(e.kind != "provenance" for e in reimported)

    def test_reimported_trace_attributes_exactly(self, traced_run, roundtrip):
        report, tracer = traced_run
        _, _, data = roundtrip
        via_chrome = analyze_chrome(data)
        via_chrome.check_exact()
        live = analyze_serving(report, tracer)
        # The exactness anchors agree bit-for-bit; per-tenant rollups of
        # anchor-derived fields therefore agree exactly too.
        assert via_chrome.num_requests == live.num_requests
        for tenant in live.tenants:
            assert via_chrome.tenant(tenant.name).latency_ms == tenant.latency_ms


class TestImportValidation:
    def test_missing_trace_events_rejected(self):
        with pytest.raises(ValueError, match="traceEvents"):
            events_from_chrome({"displayTimeUnit": "ms"})

    @pytest.mark.parametrize("data", [[], 3, "trace"])
    def test_non_object_document_rejected(self, data):
        """A JSON document that is not an object is bad input, not a crash."""
        with pytest.raises(ValueError, match="traceEvents"):
            events_from_chrome(data)

    def test_unnamed_thread_rejected(self):
        data = {
            "traceEvents": [
                {"ph": "i", "name": "x", "cat": "request", "ts": 0.0,
                 "pid": 1, "tid": 9, "s": "t"},
            ]
        }
        with pytest.raises(ValueError):
            events_from_chrome(data)
