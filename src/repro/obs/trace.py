"""Deterministic tracing on the simulated clock.

A :class:`Tracer` collects :class:`TraceEvent` records — instants and
duration spans — timestamped in **simulated milliseconds**.  Determinism is
the design center:

* Events are canonically ordered at read time (:meth:`Tracer.sorted_events`)
  by ``(ts, track, kind, name, dur, args)``, so *emission* order never
  matters: a loop that derives events after the fact and a loop that emits
  them live produce the same stream.
* Most of the request lifecycle is not emitted by the event loops at all —
  it is **derived** from the committed :class:`ServingReport` by
  :func:`trace_serving_report`, a pure function.  Since every fast path is
  already bit-identical to the reference loop at the report level, the
  derived events are bit-identical too, for free.  Only facts that do not
  survive into the report (contended per-lane segments, requeues, retry
  chains, the fault timeline, control-plane decisions) are emitted live —
  and only from code paths shared by every mode.
* The canonical byte serialisation (:meth:`Tracer.lines`) uses ``repr()``
  for floats, so two traces compare equal exactly when every float is the
  same bits — the trace-level parity contract ``run_with_parity`` asserts.

:meth:`Tracer.to_chrome` exports the Chrome trace-event JSON format
(load it at https://ui.perfetto.dev): one thread track per tenant, one per
device lane, plus fleet/control tracks.  ``docs/observability.md`` has the
span taxonomy and a worked Perfetto session.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

#: Track-name prefixes -> Chrome process ids (one pid per track family, so
#: Perfetto groups tenant tracks, lane tracks and control tracks separately).
_TRACK_PIDS = (("tenant:", 1, "tenants"), ("lane:", 2, "device lanes"))
_CONTROL_PID = (3, "fleet & control plane")


class TraceEvent(NamedTuple):
    """One trace record on the simulated clock.

    ``ts_ms`` (and ``dur_ms`` for spans; instants carry ``dur_ms=0``) are
    simulated milliseconds.  ``track`` names the timeline the event lives
    on (``tenant:<name>``, ``lane:<device>:<role>``, ``fleet``,
    ``control:<component>``); ``kind`` is the taxonomy bucket and ``name``
    the human label.  ``args`` is a key-sorted tuple of ``(key, value)``
    pairs — a hashable, deterministic stand-in for a dict.

    The field order *is* the canonical sort key, so plain tuple ordering
    sorts a trace canonically — and tuple construction keeps the derived
    fast path in :func:`trace_serving_report` cheap.
    """

    ts_ms: float
    track: str
    kind: str
    name: str
    dur_ms: float = 0.0
    args: Tuple[Tuple[str, object], ...] = ()

    def to_line(self) -> str:
        """Canonical byte serialisation (floats via ``repr`` — exact bits)."""
        parts = [
            repr(float(self.ts_ms)),
            repr(float(self.dur_ms)),
            self.track,
            self.kind,
            self.name,
        ]
        for key, value in self.args:
            rendered = repr(float(value)) if isinstance(value, float) else repr(value)
            parts.append(f"{key}={rendered}")
        return " ".join(parts)


class Tracer:
    """Collects trace events; canonical order and export at read time.

    Request-lifecycle derivation is **deferred**: the simulator hands the
    committed report to :meth:`defer_report` (O(1) inside the timed run) and
    the derived events materialise on first read of :attr:`events` — so a
    traced run pays only live emission plus a pointer, the property the
    ``bench-obs`` CI leg gates.  Because the canonical views sort, deferral
    cannot change any observable byte.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._pending_reports: List[object] = []

    @property
    def events(self) -> List[TraceEvent]:
        """All events (derives any deferred reports first)."""
        if self._pending_reports:
            pending, self._pending_reports = self._pending_reports, []
            for report in pending:
                _derive_report(self._events, report)
        return self._events

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def instant(self, ts_ms: float, track: str, kind: str, name: str, **args) -> None:
        """Record a zero-duration event at ``ts_ms``."""
        self._events.append(
            TraceEvent(
                ts_ms=float(ts_ms),
                track=track,
                kind=kind,
                name=name,
                args=tuple(sorted(args.items())),
            )
        )

    def span(
        self, ts_ms: float, dur_ms: float, track: str, kind: str, name: str, **args
    ) -> None:
        """Record a duration span ``[ts_ms, ts_ms + dur_ms]``."""
        self._events.append(
            TraceEvent(
                ts_ms=float(ts_ms),
                track=track,
                kind=kind,
                name=name,
                dur_ms=float(dur_ms),
                args=tuple(sorted(args.items())),
            )
        )

    def defer_report(self, report) -> None:
        """Queue a committed ``ServingReport`` for lazy lifecycle derivation.

        Equivalent to :func:`trace_serving_report` in every observable way,
        but the derivation work happens on first read instead of inside the
        serving run.
        """
        if self.enabled:
            self._pending_reports.append(report)

    # ------------------------------------------------------------------ #
    # canonical views
    # ------------------------------------------------------------------ #
    def sorted_events(self) -> List[TraceEvent]:
        """Events in canonical order — independent of emission order.

        ``TraceEvent`` field order matches the canonical key
        ``(ts, track, kind, name, dur, args)``, so plain tuple sort is it.
        """
        return sorted(self.events)

    def lines(self) -> List[str]:
        """Canonical byte serialisation, one line per event.

        Two traces are *identical* exactly when their ``lines()`` compare
        equal — the representation the trace parity contract is asserted
        on (floats rendered via ``repr``, so equality means equal bits).
        """
        return [event.to_line() for event in self.sorted_events()]

    # ------------------------------------------------------------------ #
    # Chrome trace-event export
    # ------------------------------------------------------------------ #
    def _track_layout(self) -> Dict[str, Tuple[int, int]]:
        """Stable ``track -> (pid, tid)`` assignment (sorted track names)."""
        layout: Dict[str, Tuple[int, int]] = {}
        counters: Dict[int, int] = {}
        for track in sorted({event.track for event in self.events}):
            pid = _CONTROL_PID[0]
            for prefix, family_pid, _ in _TRACK_PIDS:
                if track.startswith(prefix):
                    pid = family_pid
                    break
            tid = counters.get(pid, 0) + 1
            counters[pid] = tid
            layout[track] = (pid, tid)
        return layout

    def to_chrome(self, provenance: Dict = None) -> Dict:
        """The trace as a Chrome trace-event JSON object (Perfetto-loadable).

        Spans become complete (``ph="X"``) events, instants thread-scoped
        instant (``ph="i"``) events; timestamps are microseconds as the
        format requires.  Metadata events name one process per track family
        (tenants / device lanes / control) and one thread per track.
        ``provenance`` (the same ``{repro_version, argv, scenario}`` block
        the CLI stamps on ``--report-json``) lands as a top-level key —
        Perfetto ignores keys it does not know, and
        :func:`events_from_chrome` skips it on re-import.
        """
        layout = self._track_layout()
        trace_events: List[Dict] = []
        named_pids = {pid: name for _, pid, name in _TRACK_PIDS}
        named_pids[_CONTROL_PID[0]] = _CONTROL_PID[1]
        used_pids = sorted({pid for pid, _ in layout.values()})
        for pid in used_pids:
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": named_pids[pid]},
                }
            )
        for track, (pid, tid) in layout.items():
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for event in self.sorted_events():
            pid, tid = layout[event.track]
            record: Dict = {
                "name": event.name,
                "cat": event.kind,
                "ts": event.ts_ms * 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {key: value for key, value in event.args},
            }
            if event.dur_ms > 0.0:
                record["ph"] = "X"
                record["dur"] = event.dur_ms * 1000.0
            else:
                record["ph"] = "i"
                record["s"] = "t"
            trace_events.append(record)
        chrome: Dict = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        if provenance is not None:
            chrome["provenance"] = provenance
        return chrome

    def write_chrome(self, path: str, provenance: Dict = None) -> None:
        """Write :meth:`to_chrome` as JSON to ``path``."""
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.to_chrome(provenance=provenance), indent=2) + "\n"
        )


class NullTracer(Tracer):
    """The default tracer: drops everything, so instrumented hot loops pay
    one attribute check (``tracer.enabled``) and nothing else."""

    enabled = False

    def instant(self, ts_ms: float, track: str, kind: str, name: str, **args) -> None:
        pass

    def span(
        self, ts_ms: float, dur_ms: float, track: str, kind: str, name: str, **args
    ) -> None:
        pass


#: Shared no-op tracer (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------- #
# the committed-schedule derivation
# ---------------------------------------------------------------------- #


def _tenant_track(name: str) -> str:
    return f"tenant:{name}"


def _aslist(values) -> list:
    """Bulk-convert a numpy array (or any sequence) to Python scalars."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else [float(v) for v in values]


def trace_serving_report(tracer: Tracer, report) -> None:
    """Derive the request-lifecycle events from a committed ``ServingReport``.

    A pure function of the report: per completed request an ``arrive``
    instant, a ``queue`` span (arrival → service start), a ``serve`` span
    (start → completion) and a ``complete`` instant; plus instants for every
    rejection (queue full at arrival), denial (predictive admission at
    release), shed arrival, abandoned retry chain and replan the report
    recorded.  Because every loop's report is bit-identical by the parity
    contract, the derived events are too — no instrumentation of the fast
    paths required.

    This eager form derives immediately; the simulator uses the lazy
    :meth:`Tracer.defer_report` so the derivation cost lands at first read
    (export time) instead of inside the timed serving run.
    """
    if not tracer.enabled:
        return
    _derive_report(tracer.events, report)


def _derive_report(events: List[TraceEvent], report) -> None:
    """Append the derived lifecycle events for ``report`` to ``events``.

    Builds events in bulk (``tolist`` conversions, C-level ``map``/``zip``
    over :meth:`TraceEvent._make`, pre-sorted args tuples) — the derivation
    runs once per trace read, on up to hundreds of thousands of requests.
    """
    from itertools import repeat

    make = TraceEvent._make  # skips the field-by-field constructor
    extend = events.extend
    for tenant in report.tenants:
        track = _tenant_track(tenant.name)
        # Scale to ms with numpy (same IEEE multiply as the scalar path,
        # same bits), then fan out to events with C-level map/zip loops.
        arrive_ms = (tenant.arrival_s * 1000.0).tolist()
        start_ms = (tenant.start_s * 1000.0).tolist()
        queue_ms = (tenant.start_s * 1000.0 - tenant.arrival_s * 1000.0).tolist()
        complete_ms = (tenant.completion_s * 1000.0).tolist()
        lat = _aslist(tenant.latency_ms)
        resp = _aslist(tenant.response_ms)
        miss = _aslist(tenant.deadline_missed)
        r_track, r_req, r_zero, r_empty = (
            repeat(track), repeat("request"), repeat(0.0), repeat(()),
        )
        extend(
            map(make, zip(arrive_ms, r_track, r_req, repeat("arrive"), r_zero, r_empty))
        )
        extend(
            map(make, zip(arrive_ms, r_track, r_req, repeat("queue"), queue_ms, r_empty))
        )
        extend(
            map(
                make,
                zip(
                    start_ms, r_track, r_req, repeat("serve"), lat,
                    [(("latency_ms", value),) for value in lat],
                ),
            )
        )
        extend(
            map(
                make,
                zip(
                    complete_ms, r_track, r_req, repeat("complete"), r_zero,
                    [
                        (("deadline_missed", m), ("response_ms", r))
                        for m, r in zip(miss, resp)
                    ],
                ),
            )
        )
        for kind, name, times in (
            ("admission", "reject", tenant.rejected_times_s),
            ("admission", "deny", tenant.denied_times_s),
            ("fault", "shed", tenant.shed_times_s),
            ("fault", "abandon", tenant.abandoned_times_s),
            ("control", "replan", tenant.replan_times_s),
        ):
            extend(
                TraceEvent(t_s * 1000.0, track, kind, name)
                for t_s in _aslist(times)
            )


# ---------------------------------------------------------------------- #
# Chrome trace-event import
# ---------------------------------------------------------------------- #


def events_from_chrome(data: Dict) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` records from a Chrome export.

    The inverse of :meth:`Tracer.to_chrome`, for offline analysis of a
    ``--trace-json`` artifact (``repro analyze --trace-json``).  Track
    names come from the ``thread_name`` metadata; span/instant timestamps
    go back through the microsecond division, so ``ts``/``dur`` may differ
    from the live trace by an ulp — but event **args** (where the parity
    anchors like ``latency_ms`` live) round-trip bit-exactly, since JSON
    serialises floats shortest-repr.  The returned list is canonically
    sorted.  A top-level ``provenance`` block, if present, is ignored.
    """
    threads: Dict[Tuple[int, int], str] = {}
    records = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(records, list):
        raise ValueError("not a Chrome trace: missing 'traceEvents' list")
    for record in records:
        if not isinstance(record, dict):
            raise ValueError(f"not a Chrome trace: event {record!r} is not an object")
        if record.get("ph") == "M" and record.get("name") == "thread_name":
            threads[(record["pid"], record["tid"])] = record["args"]["name"]
    events: List[TraceEvent] = []
    for record in records:
        ph = record.get("ph")
        if ph not in ("X", "i"):
            continue
        key = (record.get("pid"), record.get("tid"))
        track = threads.get(key)
        if track is None:
            raise ValueError(f"trace event on unnamed thread {key}: {record}")
        args = tuple(sorted((record.get("args") or {}).items()))
        events.append(
            TraceEvent(
                ts_ms=record["ts"] / 1000.0,
                track=track,
                kind=record.get("cat", ""),
                name=record["name"],
                dur_ms=record.get("dur", 0.0) / 1000.0 if ph == "X" else 0.0,
                args=args,
            )
        )
    return sorted(events)


__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "events_from_chrome",
    "trace_serving_report",
]
