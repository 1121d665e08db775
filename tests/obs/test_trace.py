"""Tracer unit tests: canonical order, byte serialisation, Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, TraceEvent, Tracer


def make_tracer():
    tracer = Tracer()
    tracer.span(10.0, 5.0, "tenant:alpha", "request", "serve", latency_ms=5.0)
    tracer.instant(3.0, "tenant:alpha", "request", "arrive")
    tracer.instant(3.0, "fleet", "fault", "crash", device="nano0")
    tracer.span(0.0, 4.0, "lane:nano0:compute", "lane", "compute", jobs=2)
    return tracer


class TestCanonicalOrder:
    def test_sorted_events_ignore_emission_order(self):
        a = make_tracer()
        b = Tracer()
        for event in reversed(a.events):
            b.events.append(event)
        assert a.sorted_events() == b.sorted_events()
        assert a.lines() == b.lines()

    def test_sort_key_is_full_tuple(self):
        tracer = Tracer()
        tracer.instant(1.0, "t", "k", "n", x=2)
        tracer.instant(1.0, "t", "k", "n", x=1)
        args = [e.args for e in tracer.sorted_events()]
        assert args == [(("x", 1),), (("x", 2),)]

    def test_lines_render_floats_via_repr(self):
        tracer = Tracer()
        tracer.instant(0.1 + 0.2, "t", "k", "n", v=0.1 + 0.2)
        (line,) = tracer.lines()
        assert repr(0.30000000000000004) in line
        assert line.count(repr(0.1 + 0.2)) == 2

    def test_events_are_hashable_records(self):
        event = TraceEvent(1.0, "t", "k", "n", args=(("a", 1.0),))
        assert event in {event}


class TestChromeExport:
    def test_track_families_map_to_pids(self):
        chrome = make_tracer().to_chrome()
        by_name = {}
        for record in chrome["traceEvents"]:
            if record["ph"] == "M" and record["name"] == "thread_name":
                by_name[record["args"]["name"]] = record["pid"]
        assert by_name["tenant:alpha"] == 1
        assert by_name["lane:nano0:compute"] == 2
        assert by_name["fleet"] == 3

    def test_spans_are_complete_events_in_microseconds(self):
        chrome = make_tracer().to_chrome()
        serve = [r for r in chrome["traceEvents"] if r.get("name") == "serve"]
        assert serve and serve[0]["ph"] == "X"
        assert serve[0]["ts"] == 10_000.0 and serve[0]["dur"] == 5_000.0

    def test_instants_are_thread_scoped(self):
        chrome = make_tracer().to_chrome()
        arrive = [r for r in chrome["traceEvents"] if r.get("name") == "arrive"]
        assert arrive[0]["ph"] == "i" and arrive[0]["s"] == "t"

    def test_export_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        make_tracer().write_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert {r["ph"] for r in loaded["traceEvents"]} == {"M", "X", "i"}


class TestNullTracer:
    def test_drops_everything(self):
        NULL_TRACER.instant(1.0, "t", "k", "n")
        NULL_TRACER.span(1.0, 2.0, "t", "k", "n")
        assert NULL_TRACER.events == []
        assert not NULL_TRACER.enabled

    def test_is_a_tracer(self):
        assert isinstance(NULL_TRACER, Tracer)
        assert isinstance(NULL_TRACER, NullTracer)


class TestArgsDeterminism:
    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_kwargs_sorted_at_emission(self, order):
        tracer = Tracer()
        tracer.instant(0.0, "t", "k", "n", **{order[0]: 1, order[1]: 2})
        assert [k for k, _ in tracer.events[0].args] == sorted(order)


class TestDeferredDerivation:
    """``defer_report`` is lazy, and indistinguishable from the eager path."""

    @staticmethod
    def _report():
        import numpy as np
        from types import SimpleNamespace

        tenant = SimpleNamespace(
            name="alpha",
            arrival_s=np.array([0.001, 0.002]),
            start_s=np.array([0.0015, 0.003]),
            completion_s=np.array([0.002, 0.004]),
            latency_ms=np.array([0.5, 1.0]),
            response_ms=np.array([1.0, 2.0]),
            deadline_missed=np.array([False, True]),
            rejected_times_s=np.array([0.005]),
            denied_times_s=np.array([], dtype=float),
            shed_times_s=np.array([], dtype=float),
            abandoned_times_s=np.array([], dtype=float),
            replan_times_s=np.array([], dtype=float),
        )
        return SimpleNamespace(tenants=[tenant])

    def test_defer_report_does_no_work_until_read(self):
        tracer = Tracer()
        tracer.defer_report(self._report())
        assert tracer._events == []  # nothing materialised yet
        assert len(tracer.events) == 9  # 2 requests x 4 events + 1 reject

    def test_live_events_and_deferral_mix_canonically(self):
        report = self._report()
        a = Tracer()
        a.instant(0.0, "fleet", "fault", "crash", device="nano0")
        a.defer_report(report)
        b = Tracer()
        b.defer_report(report)
        _ = b.events  # force derivation before the live event
        b.instant(0.0, "fleet", "fault", "crash", device="nano0")
        assert a.lines() == b.lines()

    def test_null_tracer_defers_nothing(self):
        NULL_TRACER.defer_report(self._report())
        assert NULL_TRACER.events == []
