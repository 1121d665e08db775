"""Critical-path latency attribution over the deterministic serving trace.

A :class:`Tracer` (see :mod:`repro.obs.trace`) records *what happened*;
this module answers *where the time went*.  :func:`analyze_events`
consumes the canonical event stream of one serving run — the derived
request lifecycle plus the live-emitted contended lane spans, dispatch
instants, requeues and retry chains — and decomposes every completed
request's service latency into an exact tiling of contiguous segments:

* ``gate`` — the ``max_inflight`` admission-gate wait recorded on the
  request's ``dispatch`` instant;
* ``compute`` / ``send`` / ``recv`` — slivers covered by one of the
  request's own provider-lane busy spans (ties broken compute > send >
  recv, then by lane name);
* ``stall`` — slivers covered by none of its lane spans: requester-side
  transfers, intra-request dependency gaps and residual queueing behind
  other requests' occupancy;
* ``service`` — the whole latency of an uncontended request (independent
  runs emit no lane detail; the request saw an idle fleet).

**Exactness is structural, not numerical.**  The tiling's breakpoints
always include ``0.0`` and the committed ``latency_ms`` and consecutive
segments share their boundary float, so the segment durations sum to the
measured latency *by telescoping* — no rounding can creep in, and
:meth:`RequestAttribution.check_exact` asserts the chain bit for bit
(``repr`` equality).  Admission queueing (``queue_ms``, arrival → service
start) is reported alongside the latency tiling; response time is queue
wait plus latency.

Because the analysis is a pure function of the canonical trace — and the
trace is byte-identical across the reference, batched and array loops
(``run_with_parity`` asserts it) — the attribution inherits the parity
contract for free: :meth:`AnalysisReport.lines` compares equal across
engines exactly when every derived float is the same bits.
:func:`analyze_chrome` re-imports an exported ``--trace-json`` file, so
``repro analyze`` works offline on a trace artifact.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count, repeat
from math import copysign
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.trace import _MISSING, TraceEvent, Tracer, _TraceTable, events_from_chrome
from repro.utils.fold import fold_array, fold_sum

#: Sliver-coverage tie break: a compute span outranks a send span
#: outranks a recv span covering the same instant.
ROLE_PRIORITY = {"compute": 0, "send": 1, "recv": 2}

#: Latency-tiling segment labels, in rollup order.
SEGMENT_LABELS = ("gate", "compute", "send", "recv", "stall", "service")


class AnalysisError(ValueError):
    """A trace that cannot be attributed (malformed or mismatched)."""


class Segment(NamedTuple):
    """One contiguous sliver of a request's latency tiling.

    ``start_ms`` / ``end_ms`` are latency-relative (``0`` = service
    start); ``lane`` names the covering lane track for compute/send/recv
    segments and is empty otherwise.
    """

    label: str
    lane: str
    start_ms: float
    end_ms: float

    @property
    def dur_ms(self) -> float:
        return self.end_ms - self.start_ms


def _lane_parts(track: str) -> Tuple[str, str]:
    """``lane:<device>:<role>`` -> ``(device, role)``."""
    body, _, role = track.rpartition(":")
    return body[len("lane:"):], role


def _lane_rank(track: str) -> Tuple[int, str]:
    _, role = _lane_parts(track)
    return (ROLE_PRIORITY.get(role, len(ROLE_PRIORITY)), track)


def _same_float(a: float, b: float) -> bool:
    """``repr(a) == repr(b)`` for floats, without building the strings:
    equal value and equal sign of zero, and any NaN equals any NaN."""
    if a == b:
        return a != 0.0 or copysign(1.0, a) == copysign(1.0, b)
    return a != a and b != b


def _same_floats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_same_float` element by element."""
    return ((a == b) & (np.signbit(a) == np.signbit(b))) | (np.isnan(a) & np.isnan(b))


class RequestAttribution(NamedTuple):
    """One completed request's exact latency breakdown (an immutable record)."""

    tenant: str
    index: int
    start_ms: float
    latency_ms: float
    queue_ms: float
    contended: bool
    gate_wait_ms: float
    lane_wait_ms: float
    segments: List[Segment]

    @property
    def by_label(self) -> Dict[str, float]:
        """Per-label duration sums of the tiling."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.label] = totals.get(seg.label, 0.0) + (seg.end_ms - seg.start_ms)
        return totals

    @property
    def attributed_ms(self) -> float:
        """Telescoped segment total — the last breakpoint of the tiling."""
        return self.segments[-1].end_ms if self.segments else 0.0

    def check_exact(self) -> None:
        """Assert the tiling is a bit-exact account of ``latency_ms``.

        The chain must start at ``0.0``, every boundary must be *the same
        float* on both sides (``repr`` equality: :func:`_same_float`) and the
        last breakpoint must be the committed latency itself — which makes
        the telescoped sum of segment durations exactly the measured
        latency, with no rounding anywhere.
        """
        if not self.segments:
            raise AssertionError(
                f"{self.tenant}[{self.index}]: empty tiling for "
                f"latency {self.latency_ms!r}"
            )
        segments = self.segments
        if not _same_float(segments[0].start_ms, 0.0):
            raise AssertionError(
                f"{self.tenant}[{self.index}]: tiling starts at "
                f"{segments[0].start_ms!r}, not 0.0"
            )
        for prev, seg in zip(segments, segments[1:]):
            if not _same_float(prev.end_ms, seg.start_ms):
                raise AssertionError(
                    f"{self.tenant}[{self.index}]: gap between {prev!r} "
                    f"and {seg!r}"
                )
        if not _same_float(segments[-1].end_ms, self.latency_ms):
            raise AssertionError(
                f"{self.tenant}[{self.index}]: tiling ends at "
                f"{segments[-1].end_ms!r}, latency is {self.latency_ms!r}"
            )

    @property
    def exact(self) -> bool:
        try:
            self.check_exact()
        except AssertionError:
            return False
        return True

    def to_line(self) -> str:
        """Canonical byte serialisation (floats via ``repr``)."""
        parts = [
            self.tenant,
            str(self.index),
            repr(float(self.start_ms)),
            repr(float(self.latency_ms)),
            repr(float(self.queue_ms)),
            repr(float(self.lane_wait_ms)),
            "contended" if self.contended else "idle",
        ]
        for seg in self.segments:
            lane = seg.lane or "-"
            parts.append(f"{seg.label}@{lane}:{seg.start_ms!r}:{seg.end_ms!r}")
        return " ".join(parts)


class _IdleRequests:
    """One tenant's uncontended requests, held as columns.

    Each request is tiled by one ``service`` segment ``[0.0, latency]``, so
    the start, latency and queue columns are the whole of its
    :class:`RequestAttribution`; the records are built only when read.
    """

    __slots__ = ("tenant", "start_ms", "latency_ms", "queue_ms")
    contended = False

    def __init__(self, tenant: str, start_ms, latency_ms, queue_ms) -> None:
        self.tenant, self.start_ms, self.latency_ms, self.queue_ms = tenant, start_ms, latency_ms, queue_ms

    def __len__(self) -> int:
        return len(self.latency_ms)

    def records(self) -> List[RequestAttribution]:
        latencies = self.latency_ms.tolist()
        return list(_records(
            RequestAttribution, repeat(self.tenant), count(), self.start_ms.tolist(),
            latencies, self.queue_ms.tolist(), repeat(False), repeat(0.0), repeat(0.0),
            ([Segment("service", "", 0.0, latency)] for latency in latencies),
        ))

    def check_exact(self) -> None:
        """The one segment lasts exactly the latency (``latency - 0.0``),
        checked as one array comparison with :func:`_same_float` semantics."""
        same = _same_floats(self.latency_ms - 0.0, self.latency_ms)
        if not same.all():
            self.records()[int(np.argmin(same))].check_exact()

    def lines(self) -> List[str]:
        """:meth:`RequestAttribution.to_line` of each request."""
        return [
            f"{self.tenant} {index} {start!r} {latency!r} {queue!r} 0.0 idle "
            f"service@-:0.0:{latency!r}"
            for index, start, latency, queue in zip(
                count(), self.start_ms.tolist(), self.latency_ms.tolist(),
                self.queue_ms.tolist(),
            )
        ]


#: :class:`TenantAttribution`'s counters and totals, in ``to_dict`` order.
_TENANT_FIELDS = (
    ("requests", int), ("contended_requests", int), ("queue_ms", float),
    ("latency_ms", float), ("response_ms", float), ("lane_wait_ms", float),
    ("misses", int), ("rejects", int), ("denies", int), ("requeues", int),
    ("sheds", int), ("abandons", int), ("replans", int), ("retries", int),
    ("retry_backoff_ms", float), ("lost_attempts", int), ("lost_attempt_ms", float),
)

#: The totals :meth:`TenantAttribution.to_line` renders after the labels.
_LINE_TOTALS = (
    "queue_ms", "latency_ms", "response_ms", "lane_wait_ms", "retry_backoff_ms",
    "lost_attempt_ms",
)


class TenantAttribution:
    """Per-tenant rollup of the request breakdowns plus trace-only facts
    (one attribute per :data:`_TENANT_FIELDS` entry, from zero)."""

    def __init__(self, name: str) -> None:
        self.name = name
        for field, kind in _TENANT_FIELDS:
            setattr(self, field, kind())
        self.by_label: Dict[str, float] = {label: 0.0 for label in SEGMENT_LABELS}

    @property
    def dominant(self) -> str:
        """The breakdown bucket holding the most milliseconds (queue included)."""
        candidates = [("queue", self.queue_ms)] + [
            (label, self.by_label[label]) for label in SEGMENT_LABELS
        ]
        # max() keeps the first of equal keys; candidate order is fixed.
        return max(candidates, key=lambda kv: kv[1])[0]

    def to_dict(self) -> Dict:
        out: Dict = {"name": self.name}
        out.update((field, kind(getattr(self, field))) for field, kind in _TENANT_FIELDS)
        out["dominant"] = self.dominant
        out.update((f"{label}_ms", float(self.by_label[label])) for label in SEGMENT_LABELS)
        return out

    def to_line(self) -> str:
        cells = [f"tenant {self.name}", str(self.requests)]
        cells += [repr(float(self.by_label[label])) for label in SEGMENT_LABELS]
        cells += [repr(float(getattr(self, field))) for field in _LINE_TOTALS]
        return " ".join(cells)


class LaneAttribution:
    """Per-lane rollup: raw occupancy plus critical-path milliseconds."""

    def __init__(self, lane: str) -> None:
        self.lane = lane
        self.device, self.role = _lane_parts(lane)
        self.critical_ms = self.busy_ms = self.wait_ms = self.share = 0.0
        self.jobs = self.spans = 0

    def to_dict(self) -> Dict:
        out: Dict = {"lane": self.lane, "device": self.device, "role": self.role}
        for field in ("critical_ms", "share", "busy_ms", "wait_ms"):
            out[field] = float(getattr(self, field))
        out.update(jobs=int(self.jobs), spans=int(self.spans))
        return out

    def to_line(self) -> str:
        totals = [repr(float(x)) for x in (self.critical_ms, self.busy_ms, self.wait_ms)]
        return " ".join([f"lane {self.lane}", *totals, str(self.jobs), str(self.spans)])


class AnalysisReport:
    """The full attribution: per-request tilings, rollups, bottleneck ranking.

    ``requests`` lists :class:`RequestAttribution` records in order; an
    uncontended tenant's requests may stand in it as one block of columns,
    which :attr:`requests` materialises on first read.
    """

    def __init__(
        self,
        requests: List,
        tenants: List[TenantAttribution],
        lanes: List[LaneAttribution],
        truncated_attempts: int,
    ) -> None:
        self._items = requests
        self._requests: Optional[List[RequestAttribution]] = None
        self.tenants = tenants
        #: Ranked most critical-path milliseconds first — the fleet-level
        #: bottleneck ordering (ties by lane name).
        self.lanes = lanes
        self.truncated_attempts = truncated_attempts

    @property
    def requests(self) -> List[RequestAttribution]:
        """Every request's attribution, in tenant order."""
        if self._requests is None:
            self._requests = [
                record for item in self._items
                for record in (item.records() if isinstance(item, _IdleRequests) else (item,))
            ]
        return self._requests

    @property
    def num_requests(self) -> int:
        return sum(len(item) if isinstance(item, _IdleRequests) else 1 for item in self._items)

    @property
    def contended_requests(self) -> int:
        return sum(1 for item in self._items if item.contended)

    @property
    def exact(self) -> bool:
        """Every request's tiling closes bit-exactly at its latency."""
        try:
            self.check_exact()
        except AssertionError:
            return False
        return True

    def check_exact(self) -> None:
        for item in self._items:
            item.check_exact()

    @property
    def bottleneck(self) -> str:
        """The lane holding the most critical-path milliseconds ('' if none)."""
        return self.lanes[0].lane if self.lanes else ""

    def tenant(self, name: str) -> TenantAttribution:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(
            f"no tenant {name!r}; tenants: {[t.name for t in self.tenants]}"
        )

    def total(self, field: str) -> float:
        """Sum a :class:`TenantAttribution` field over every tenant."""
        by_label = field in SEGMENT_LABELS
        return fold_sum(t.by_label[field] if by_label else getattr(t, field) for t in self.tenants)

    def lines(self) -> List[str]:
        """Canonical byte serialisation of the whole attribution.

        Two analyses compare equal exactly when every request tiling,
        tenant rollup and lane rollup is the same bits — the form the
        parity contract (``run_with_parity(compare_analysis=True)``)
        asserts across the reference, batched and array loops.
        """
        out = [
            line for item in self._items
            for line in (item.lines() if isinstance(item, _IdleRequests) else (item.to_line(),))
        ]
        out += [tenant.to_line() for tenant in self.tenants]
        out += [lane.to_line() for lane in self.lanes]
        out.append(f"truncated_attempts {self.truncated_attempts}")
        return out

    def to_dict(self) -> Dict:
        """Machine-readable dump (the shape ``repro analyze --report-json``
        writes; pinned by ``tests/data/analysis_report_schema.json``)."""
        totals = {f"{label}_ms": float(self.total(label)) for label in SEGMENT_LABELS}
        totals.update((field, float(self.total(field))) for field in _LINE_TOTALS)
        return {
            "requests": int(self.num_requests),
            "contended_requests": int(self.contended_requests),
            "truncated_attempts": int(self.truncated_attempts),
            "exact": bool(self.exact),
            "bottleneck": self.bottleneck,
            "totals": totals,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "lanes": [lane.to_dict() for lane in self.lanes],
        }


# ---------------------------------------------------------------------- #
# the analysis pass
# ---------------------------------------------------------------------- #


def _tile_request(
    latency_ms: float,
    gate_ms: float,
    spans: List[Tuple[float, float, str]],
) -> List[Segment]:
    """Tile ``[0, latency_ms]`` from the gate wait and the request's own
    latency-relative lane intervals (``(start, end, lane_track)``)."""
    length = latency_ms
    gate = min(max(gate_ms, 0.0), length)
    intervals: List[Tuple[float, float, str]] = []
    points = {0.0, gate, length}
    for start, end, lane in spans:
        # Clamp defensively: a re-imported Chrome trace's timestamps went
        # through the microsecond conversion and may wobble by an ulp.
        start = min(max(start, 0.0), length)
        end = min(max(end, start), length)
        if end > start:
            intervals.append((start, end, lane))
            points.add(start)
            points.add(end)
    breakpoints = sorted(points)
    segments: List[Segment] = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        if b <= gate:
            label, lane = "gate", ""
        else:
            covering = [t for (x, y, t) in intervals if x <= a and y >= b]
            if covering:
                lane = min(covering, key=_lane_rank)
                label = _lane_parts(lane)[1]
            else:
                label, lane = "stall", ""
        if segments and segments[-1].label == label and segments[-1].lane == lane:
            segments[-1] = segments[-1]._replace(end_ms=b)
        else:
            segments.append(Segment(label, lane, a, b))
    if not segments:
        # Zero-length latency: one empty segment keeps the chain closed.
        segments.append(Segment("service", "", 0.0, length))
    return segments


#: Tenant-track streams read one record at a time, because their args
#: differ per event (lane spans, on any track, are read that way too).
_PER_EVENT = {("request", "dispatch"), ("fault", "retry"), ("fault", "retry_chain")}

#: Tenant-track instants that only count: ``(kind, name)`` -> rollup field.
_COUNTED = {
    ("admission", "reject"): "rejects",
    ("admission", "deny"): "denies",
    ("admission", "requeue"): "requeues",
    ("fault", "shed"): "sheds",
    ("fault", "abandon"): "abandons",
    ("control", "replan"): "replans",
}

_NO_ROWS = np.empty(0, dtype=np.intp)


class _TenantEvents:
    """One tenant's rows and records, bucketed by what the analysis needs."""

    __slots__ = (
        "serve", "queue", "complete", "dispatches", "final_by_release", "spans",
        "rollup",
    )

    def __init__(self, name: str) -> None:
        # Row ids of the lifecycle streams, in canonical order.
        self.serve = self.queue = self.complete = _NO_ROWS
        self.dispatches: List[Tuple[float, float, bool]] = []  # (release, lat, truncated)
        self.final_by_release: Dict[float, Tuple[float, bool]] = {}  # (gate, contended)
        self.spans: List[Tuple[float, str, float, dict]] = []  # (ts, track, dur, args)
        self.rollup = TenantAttribution(name)


def _records(cls, *columns) -> Iterator[tuple]:
    """``cls`` records (a NamedTuple) built from columns at C speed."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


def _attribute(table: _TraceTable, order: np.ndarray) -> AnalysisReport:
    """Attribute the trace held by ``table``, reading its rows in ``order``."""
    tenants: Dict[str, _TenantEvents] = {}

    def tenant_entry(name: str) -> _TenantEvents:
        entry = tenants.get(name)
        if entry is None:
            entry = tenants[name] = _TenantEvents(name)
        return entry

    # Whole streams: the lifecycle columns and the counted instants.
    per_event = np.zeros(len(table.streams), dtype=bool)
    for sid, ((track, kind, name), rows) in enumerate(
        zip(table.streams, table.rows_by_stream(order))
    ):
        if kind == "lane":
            per_event[sid] = True
        elif track.startswith("tenant:"):
            entry = tenant_entry(track[7:])  # len("tenant:")
            if (kind, name) in _PER_EVENT:
                per_event[sid] = True
            elif kind == "request" and name in ("serve", "queue", "complete"):
                setattr(entry, name, rows)
            elif (kind, name) in _COUNTED:
                field = _COUNTED[(kind, name)]
                setattr(entry.rollup, field, getattr(entry.rollup, field) + len(rows))

    # Records whose args differ per event, in order.
    live_rows = order[per_event[table.stream[order]]].tolist()
    for ts_ms, track, kind, name, dur_ms, raw_args in map(table.event, live_rows):
        args = dict(raw_args)
        if kind == "lane":
            tenant_entry(str(args.get("tenant", ""))).spans.append((ts_ms, track, dur_ms, args))
            continue
        entry = tenants[track[7:]]
        rollup = entry.rollup
        if name == "dispatch":
            latency = float(args.get("latency_ms", 0.0))
            truncated = bool(args.get("truncated", False))
            entry.dispatches.append((ts_ms, latency, truncated))
            if truncated:
                rollup.lost_attempt_ms += latency
            else:
                entry.final_by_release[ts_ms] = (
                    float(args.get("gate_wait_ms", 0.0)), bool(args.get("contended", False))
                )
        elif name == "retry":
            rollup.retries += 1
            rollup.retry_backoff_ms += float(args.get("delay_ms", 0.0))
            rollup.lost_attempts += 1
        else:  # retry_chain
            rollup.retries += max(int(args.get("attempts", 1)) - 1, 0)
            rollup.retry_backoff_ms += float(args.get("retry_added_ms", 0.0))
            rollup.lost_attempts += int(args.get("lost_attempts", 0))

    # The lifecycle columns of every tenant, read in one pass per column;
    # serve spans pair with queue spans by rank.
    names = sorted(tenants)
    entries = [tenants[name] for name in names]
    for entry in entries:
        if len(entry.queue) != len(entry.serve):
            raise AnalysisError(
                f"tenant {entry.rollup.name!r}: {len(entry.queue)} queue spans for "
                f"{len(entry.serve)} serve spans — not a full run trace"
            )
    serve = np.concatenate([_NO_ROWS] + [entry.serve for entry in entries])
    queue = np.concatenate([_NO_ROWS] + [entry.queue for entry in entries])
    complete = np.concatenate([_NO_ROWS] + [entry.complete for entry in entries])
    served = np.cumsum([0] + [len(entry.serve) for entry in entries]).tolist()
    completed = np.cumsum([0] + [len(entry.complete) for entry in entries]).tolist()
    starts, latencies = table.columns(serve, ("ts_ms",), ("latency_ms",))
    if latencies.dtype == object:  # a serve span without the arg: its duration
        unset = latencies == _MISSING
        latencies[unset] = table.columns(serve[unset], ("dur_ms",))[0]
    (queues,) = table.columns(queue, ("dur_ms",))
    # A missing response folds as 0.0: the running total starts at +0.0 and
    # so is never -0.0, and adding 0.0 leaves every other float unchanged.
    responses, missed = table.columns(complete, args=("response_ms", "deadline_missed"))
    for column, absent in ((responses, 0.0), (missed, False)):
        if column.dtype == object:
            column[column == _MISSING] = absent
    latencies, responses = latencies.astype(float), responses.astype(float)
    missed = np.cumsum(np.concatenate(([0], missed.astype(bool)))).tolist()

    requests: List = []
    rollups: List[TenantAttribution] = []
    lanes: Dict[str, LaneAttribution] = {}
    truncated_attempts = 0

    for t, (name, entry) in enumerate(zip(names, entries)):
        rollup = entry.rollup
        # Bucket each lane span onto the dispatch whose release precedes it
        # (per-tenant releases are strictly ordered by the sequential
        # contended dispatcher, and a request's lanes never start before
        # its release).
        entry.dispatches.sort()
        releases = [release for release, _, _ in entry.dispatches]
        spans_by_release: Dict[float, List[Tuple[float, float, str]]] = {}
        wait_by_release: Dict[float, float] = {}
        for span_ts, span_track, span_dur, span_args in entry.spans:
            lane = lanes.get(span_track)
            if lane is None:
                lane = lanes[span_track] = LaneAttribution(span_track)
            wait_ms = float(span_args.get("wait_ms", 0.0))
            lane.busy_ms += span_dur
            lane.wait_ms += wait_ms
            lane.jobs += int(span_args.get("jobs", 0))
            lane.spans += 1
            rollup.lane_wait_ms += wait_ms
            if not releases:
                continue
            slot = bisect_right(releases, span_ts) - 1
            if slot < 0:
                slot = 0
            release, _, truncated = entry.dispatches[slot]
            if truncated:
                continue  # lost work: occupancy counted, never critical path
            spans_by_release.setdefault(release, []).append(
                (span_ts - release, span_ts - release + span_dur, span_track)
            )
            wait_by_release[release] = wait_by_release.get(release, 0.0) + wait_ms
        truncated_here = sum(1 for _, _, t in entry.dispatches if t)
        truncated_attempts += truncated_here
        rollup.lost_attempts += truncated_here

        rows = slice(served[t], served[t + 1])
        done = slice(completed[t], completed[t + 1])
        rollup.response_ms = fold_array(responses[done])
        rollup.misses = missed[done.stop] - missed[done.start]
        rollup.requests = served[t + 1] - served[t]
        rollup.queue_ms = fold_array(queues[rows])
        rollup.latency_ms = fold_array(latencies[rows])

        # Per-label sums fold in request order, one label at a time.  An
        # uncontended request is one service segment, and latency - 0.0 is
        # the latency itself.
        by_label = rollup.by_label
        final = entry.final_by_release
        if not final:  # no dispatch: every request saw an idle fleet
            by_label["service"] = rollup.latency_ms
            requests.append(_IdleRequests(name, starts[rows], latencies[rows], queues[rows]))
            rollups.append(rollup)
            continue
        for index, (start_ms, latency_ms, queue_ms) in enumerate(zip(
            starts[rows].tolist(), latencies[rows].tolist(), queues[rows].tolist()
        )):
            found = final.get(start_ms)
            if found is None:
                by_label["service"] += latency_ms
                requests.append(RequestAttribution(
                    name, index, start_ms, latency_ms, queue_ms, False, 0.0, 0.0,
                    [Segment("service", "", 0.0, latency_ms)],
                ))
                continue
            gate_wait, contended = found
            segments = _tile_request(
                latency_ms, gate_wait, spans_by_release.get(start_ms, [])
            )
            requests.append(RequestAttribution(
                name, index, start_ms, latency_ms, queue_ms, contended, gate_wait,
                wait_by_release.get(start_ms, 0.0), segments,
            ))
            rollup.contended_requests += 1 if contended else 0
            for seg in segments:
                dur = seg.end_ms - seg.start_ms
                by_label[seg.label] += dur
                if seg.lane:
                    lanes[seg.lane].critical_ms += dur
        rollups.append(rollup)

    ranked = sorted(lanes.values(), key=lambda l: (-l.critical_ms, l.lane))
    total_critical = fold_sum(lane.critical_ms for lane in ranked)
    if total_critical > 0.0:
        for lane in ranked:
            lane.share = lane.critical_ms / total_critical
    return AnalysisReport(requests, rollups, ranked, truncated_attempts)


def _attribute_tracer(tracer: Tracer) -> AnalysisReport:
    return _attribute(*tracer._canonical())


def analyze_events(events: Iterable[TraceEvent]) -> AnalysisReport:
    """Attribute one serving run's canonical event stream.

    ``events`` must be a full run's trace in canonical order — pass a
    :class:`Tracer` to :func:`analyze_trace` or a Chrome export to
    :func:`analyze_chrome` rather than calling this directly.  The records
    are transposed into the columns a :class:`Tracer` keeps and read in
    the order given, so both take the same attribution path.
    """
    table = _TraceTable(list(events), ())
    return _attribute(table, np.arange(len(table.records)))


def analyze_trace(tracer: Tracer) -> AnalysisReport:
    """Attribute a live :class:`Tracer`'s run (canonical event order)."""
    return _attribute_tracer(tracer)


def analyze_chrome(data: Dict) -> AnalysisReport:
    """Attribute an exported Chrome trace (``repro serve --trace-json``).

    Timestamps come back through the microsecond conversion (may differ
    from the live trace by an ulp; the tiling clamps), while the exactness
    anchors — ``latency_ms`` / ``gate_wait_ms`` event args — round-trip
    bit-exactly through JSON, so :meth:`RequestAttribution.check_exact`
    holds for re-imported traces too.
    """
    return analyze_events(events_from_chrome(data))


def analyze_serving(report, tracer: Optional[Tracer] = None) -> AnalysisReport:
    """Attribute a committed ``ServingReport``, cross-checking the trace.

    With ``tracer=None`` a fresh tracer derives the lifecycle from the
    report — queue + service attribution only (live-only facts like lane
    spans are gone).  With the run's own tracer the full breakdown is
    available, and the committed report must agree with the trace on the
    request count per tenant (a cheap integrity check on the pairing).
    """
    if tracer is None:
        tracer = Tracer()
        tracer.defer_report(report)
    analysis = _attribute_tracer(tracer)
    for tenant in report.tenants:
        if tenant.num_completed == 0 and all(
            t.name != tenant.name for t in analysis.tenants
        ):
            continue
        attributed = analysis.tenant(tenant.name).requests
        if attributed != tenant.num_completed:
            raise AnalysisError(
                f"tenant {tenant.name!r}: report committed "
                f"{tenant.num_completed} requests but the trace attributes "
                f"{attributed} — trace and report are from different runs"
            )
    return analysis


__all__ = [
    "ROLE_PRIORITY",
    "SEGMENT_LABELS",
    "AnalysisError",
    "AnalysisReport",
    "LaneAttribution",
    "RequestAttribution",
    "Segment",
    "TenantAttribution",
    "analyze_chrome",
    "analyze_events",
    "analyze_serving",
    "analyze_trace",
]
