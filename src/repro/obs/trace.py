"""Deterministic tracing on the simulated clock.

A :class:`Tracer` collects :class:`TraceEvent` records — instants and
duration spans — timestamped in **simulated milliseconds**.  Determinism is
the design center:

* Events are canonically ordered at read time (:meth:`Tracer.sorted_events`)
  by ``(ts, track, kind, name, dur, args)``, so *emission* order never
  matters: a loop that derives events after the fact and a loop that emits
  them live produce the same stream.
* Most of the request lifecycle is not emitted by the event loops at all —
  it is **derived** from the committed :class:`ServingReport`, a pure
  function of it.  Since every fast path is already bit-identical to the
  reference loop at the report level, the derived events are bit-identical
  too, for free.  Only facts that do not survive into the report
  (contended per-lane segments, requeues, retry chains, the fault
  timeline, control-plane decisions) are emitted live — and only from code
  paths shared by every mode.
* Derived events are held as the report's own columns, not as records:
  one ``np.lexsort`` orders derived and live rows together, and the Chrome
  export and the latency attribution read the sorted columns.  They
  become :class:`TraceEvent` records only when asked for
  (:attr:`Tracer.events`, :meth:`Tracer.sorted_events`).
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
from bisect import bisect_right
from functools import cached_property
from itertools import count, repeat
from operator import itemgetter, methodcaller
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
    sorts a trace canonically.
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


class _Block(NamedTuple):
    """Derived lifecycle rows of one ``(track, kind, name)`` stream, as columns.

    ``ts_ms`` and ``dur_ms`` are per-row arrays (zeros for instants);
    ``args`` pairs each arg key, in key order, with its per-row values.
    """

    track: str
    kind: str
    name: str
    ts_ms: np.ndarray
    dur_ms: np.ndarray
    args: Tuple[Tuple[str, np.ndarray], ...] = ()

    def arg_rows(self) -> Iterator[tuple]:
        """Each row's args as the ``(key, value)`` pairs a TraceEvent holds."""
        if not self.args:
            return repeat((), len(self.ts_ms))
        return zip(*(zip(repeat(key), values.tolist()) for key, values in self.args))

    def events(self) -> Iterator[TraceEvent]:
        """The rows as :class:`TraceEvent` records, in row order."""
        return map(
            TraceEvent._make,
            zip(
                self.ts_ms.tolist(), repeat(self.track), repeat(self.kind),
                repeat(self.name), self.dur_ms.tolist(), self.arg_rows(),
            ),
        )


class _TraceTable:
    """A trace's rows as columns, plus their canonical order.

    Rows ``[0, len(records))`` are :class:`TraceEvent` records (live
    emission, or an imported export); the derived blocks' rows follow in
    block order.  Every row belongs to one ``(track, kind, name)`` stream.
    """

    def __init__(self, records: List[TraceEvent], blocks: Sequence[_Block]) -> None:
        self.records = records
        self.blocks = blocks
        lengths = [len(block.ts_ms) for block in blocks]
        bounds = np.cumsum([len(records)] + lengths)
        self.block_starts: List[int] = bounds[:-1].tolist()
        # Label each row's stream by the stream's first row, in C-level
        # passes that keep no object per row alive (each live object per
        # event is more work for the garbage collector).
        first: Dict[Tuple[str, str, str], int] = {}
        labels = np.fromiter(
            map(first.setdefault, map(itemgetter(1, 2, 3), records), count()),
            np.intp, len(records),
        )
        block_labels = [
            first.setdefault((block.track, block.kind, block.name), start)
            for block, start in zip(blocks, self.block_starts)
        ]
        #: Stream id -> ``(track, kind, name)``, in order of first row.
        self.streams: List[Tuple[str, str, str]] = list(first)
        dense = np.zeros(bounds[-1], dtype=np.intp)
        dense[list(first.values())] = np.arange(len(first))
        block_rows = np.repeat(np.array(block_labels, dtype=np.intp), lengths)
        self.stream = dense[np.concatenate([labels, block_rows])]

    def _column(self, name: str) -> np.ndarray:
        records, get = self.records, itemgetter(TraceEvent._fields.index(name))
        return np.concatenate(
            [np.fromiter(map(get, records), float, len(records))]
            + [getattr(block, name) for block in self.blocks]
        )

    @cached_property
    def ts(self) -> np.ndarray:
        """Every row's ``ts_ms`` (built on first use)."""
        return self._column("ts_ms")

    @cached_property
    def dur(self) -> np.ndarray:
        """Every row's ``dur_ms`` (built on first use)."""
        return self._column("dur_ms")

    def event(self, row: int) -> TraceEvent:
        """Row ``row`` as a :class:`TraceEvent`."""
        if row < len(self.records):
            return self.records[row]
        b = bisect_right(self.block_starts, row) - 1
        block, i = self.blocks[b], row - self.block_starts[b]
        return TraceEvent(
            block.ts_ms[i].item(), block.track, block.kind, block.name,
            block.dur_ms[i].item(),
            tuple((key, values[i].item()) for key, values in block.args),
        )

    def events(self) -> List[TraceEvent]:
        """Every row as a :class:`TraceEvent`, in row order."""
        rows = list(self.records)
        for block in self.blocks:
            rows.extend(block.events())
        return rows

    def canonical_order(self) -> np.ndarray:
        """Row ids in canonical order, the key ``(ts, track, kind, name, dur, args)``.

        One ``np.lexsort`` over ``(ts, stream rank, dur)``: a stream's rank
        is the position of its ``(track, kind, name)`` in sorted order, so
        it sorts exactly as the three strings do.  Rows tied on all of
        those are re-sorted by Python tuple comparison of the full events,
        which decides on ``args``; both sorts are stable, so equal events
        keep row order — the order ``sorted()`` over the rows would give.
        """
        num_streams = len(self.streams)
        rank = np.empty(num_streams, dtype=np.intp)
        rank[sorted(range(num_streams), key=self.streams.__getitem__)] = np.arange(num_streams)
        stream_rank = rank[self.stream]
        order = np.lexsort((self.dur, stream_rank, self.ts))
        ts, sr, dur = self.ts[order], stream_rank[order], self.dur[order]
        # Position p ties with p + 1; consecutive p chain into one run.
        tied = np.flatnonzero((ts[1:] == ts[:-1]) & (sr[1:] == sr[:-1]) & (dur[1:] == dur[:-1]))
        if tied.size:
            breaks = np.diff(tied) != 1
            firsts = tied[np.r_[True, breaks]].tolist()
            lasts = (tied[np.r_[breaks, True]] + 2).tolist()
            for first, last in zip(firsts, lasts):
                rows = order[first:last]
                events = [self.event(row) for row in rows.tolist()]
                order[first:last] = rows[sorted(range(len(events)), key=events.__getitem__)]
        return order

    def rows_by_stream(self, order: np.ndarray) -> List[np.ndarray]:
        """Per stream id, its rows in the sequence ``order`` lists them."""
        streams = self.stream[order]
        # A stable argsort of integers of 16 bits or fewer is a radix sort.
        small = streams.astype(np.min_scalar_type(len(self.streams)))
        grouped = order[np.argsort(small, kind="stable")]
        counts = np.bincount(streams, minlength=len(self.streams))
        return np.split(grouped, np.cumsum(counts)[:-1])

    def columns(self, rows: np.ndarray, fields=(), args=()) -> List[np.ndarray]:
        """Per name in ``fields`` (``"ts_ms"``, ``"dur_ms"``), a float array of
        that field of each of ``rows``; then per key in ``args``, that arg of
        each row: floats if every row carries it, else an object array with
        :data:`_MISSING` where a row lacks it."""
        is_record = rows < len(self.records)
        records = list(map(self.records.__getitem__, rows[is_record].tolist()))
        at = np.flatnonzero(~is_record)
        block_of = np.searchsorted(self.block_starts, rows[at], side="right") - 1
        blocks = []
        for b in np.unique(block_of).tolist():
            sel = at[block_of == b]
            blocks.append((self.blocks[b], sel, rows[sel] - self.block_starts[b]))
        out = []
        for name in fields:
            values = np.empty(len(rows))
            get = itemgetter(TraceEvent._fields.index(name))
            values[is_record] = np.fromiter(map(get, records), float, len(records))
            for block, sel, local in blocks:
                values[sel] = getattr(block, name)[local]
            out.append(values)
        record_args = list(map(itemgetter(5), records)) if args else []
        for key in args:
            found, complete = _arg_values(record_args, key)
            complete = complete and all(key in dict(block.args) for block, _, _ in blocks)
            values = np.empty(len(rows)) if complete else np.full(len(rows), _MISSING, object)
            values[is_record] = found
            for block, sel, local in blocks:
                column = dict(block.args).get(key)
                if column is not None:
                    values[sel] = column[local]
            out.append(values)
        return out


#: Marks an arg a row does not carry.
_MISSING = object()


def _arg_values(args: List[tuple], key: str) -> Tuple[list, bool]:
    """``dict(pairs).get(key, _MISSING)`` for each args tuple in ``args``, and
    whether every tuple carries ``key``.

    Fast path: the rows of one stream usually share their key layout, so
    when ``key`` sits at the same position in every tuple the values are
    read positionally, without a dict per row.
    """
    position = next((j for j, (k, _) in enumerate(args[0]) if k == key), None) if args else None
    if position is not None:
        try:
            pairs = list(map(itemgetter(position), args))
        except IndexError:
            pairs = None
        if pairs is not None and set(map(itemgetter(0), pairs)) == {key}:
            return list(map(itemgetter(1), pairs)), True
    values = list(map(methodcaller("get", key, _MISSING), map(dict, args)))
    return values, _MISSING not in values


class Tracer:
    """Collects trace events; canonical order and export at read time.

    Live emission appends :class:`TraceEvent` records.  The request
    lifecycle is **deferred**: the simulator hands the committed report to
    :meth:`defer_report` (O(1) inside the timed run), and on first read its
    per-tenant arrays become column blocks (:func:`_lifecycle_blocks`) that
    the canonical views sort and export without building an event per row.
    They materialise as :class:`TraceEvent` records only when asked — by
    :attr:`events`, :meth:`sorted_events` or :meth:`lines`.  Because the
    canonical views sort, deferral cannot change any observable byte.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._pending_reports: List[object] = []
        self._blocks: List[_Block] = []
        # The canonical views' shared work, kept until the trace changes (an
        # emission, a deferred report or an `events` access drops them).
        self._view: Optional[Tuple[_TraceTable, np.ndarray]] = None
        self._sorted: Optional[List[TraceEvent]] = None

    def _lifecycle(self) -> List[_Block]:
        """Column blocks of every deferred report (each report converted once)."""
        if self._pending_reports:
            pending, self._pending_reports = self._pending_reports, []
            for report in pending:
                self._blocks.extend(_lifecycle_blocks(report))
        return self._blocks

    def _canonical(self) -> Tuple[_TraceTable, np.ndarray]:
        """The trace's table and its canonical row order (built once per change)."""
        if self._view is None:
            table = _TraceTable(self._events, self._lifecycle())
            self._view = (table, table.canonical_order())
        return self._view

    @property
    def events(self) -> List[TraceEvent]:
        """All events as records (materialises any derived lifecycle first)."""
        self._view = self._sorted = None
        blocks = self._lifecycle()
        if blocks:
            self._blocks = []
            for block in blocks:
                self._events.extend(block.events())
        return self._events

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def instant(self, ts_ms: float, track: str, kind: str, name: str, **args) -> None:
        """Record a zero-duration event at ``ts_ms``."""
        self._view = self._sorted = None
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
        self._view = self._sorted = None
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
            self._view = self._sorted = None
            self._pending_reports.append(report)

    # ------------------------------------------------------------------ #
    # canonical views
    # ------------------------------------------------------------------ #
    def sorted_events(self) -> List[TraceEvent]:
        """Events in canonical order — independent of emission order.

        The order is plain tuple order of :class:`TraceEvent` (field order
        is the key ``(ts, track, kind, name, dur, args)``), computed over
        the columns by :meth:`_TraceTable.canonical_order`.  The records are
        built once per change of the trace; each call returns a new list.
        """
        if self._sorted is None:
            table, order = self._canonical()
            self._sorted = list(map(table.events().__getitem__, order.tolist()))
        return list(self._sorted)

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
        table, order = self._canonical()
        layout = _track_layout({track for track, _, _ in table.streams})
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
        records = table.records
        rows = _chrome_rows(
            map(itemgetter(3), records), map(itemgetter(2), records),
            table.ts[: len(records)], table.dur[: len(records)],
            map(layout.__getitem__, map(itemgetter(1), records)),
            map(dict, map(itemgetter(5), records)),
        )
        for block in table.blocks:
            rows += _chrome_rows(
                repeat(block.name), repeat(block.kind), block.ts_ms, block.dur_ms,
                repeat(layout[block.track]), map(dict, block.arg_rows()),
            )
        for at in range(0, len(order), 4096):  # a short row-id list at a time
            trace_events.extend(map(rows.__getitem__, order[at:at + 4096].tolist()))
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


def _track_layout(tracks) -> Dict[str, Tuple[int, int]]:
    """Stable ``track -> (pid, tid)`` assignment (sorted track names)."""
    layout: Dict[str, Tuple[int, int]] = {}
    counters: Dict[int, int] = {}
    for track in sorted(tracks):
        pid = _CONTROL_PID[0]
        for prefix, family_pid, _ in _TRACK_PIDS:
            if track.startswith(prefix):
                pid = family_pid
                break
        tid = counters.get(pid, 0) + 1
        counters[pid] = tid
        layout[track] = (pid, tid)
    return layout


def _chrome_rows(names, cats, ts_ms, dur_ms, places, args) -> List[Dict]:
    """Chrome records for rows given as columns (``ts_ms``/``dur_ms`` arrays,
    ``places`` the ``(pid, tid)`` of each row's track)."""
    return [
        {"name": n, "cat": c, "ts": t, "pid": pid, "tid": tid, "args": a, "ph": "X", "dur": d}
        if d > 0.0
        else {"name": n, "cat": c, "ts": t, "pid": pid, "tid": tid, "args": a, "ph": "i", "s": "t"}
        for n, c, t, d, (pid, tid), a in zip(
            names, cats, (ts_ms * 1000.0).tolist(), (dur_ms * 1000.0).tolist(), places, args
        )
    ]


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

#: Instants derived from a tenant report's time lists: (kind, name, field).
_LIFECYCLE_INSTANTS = (
    ("admission", "reject", "rejected_times_s"),
    ("admission", "deny", "denied_times_s"),
    ("fault", "shed", "shed_times_s"),
    ("fault", "abandon", "abandoned_times_s"),
    ("control", "replan", "replan_times_s"),
)


def _lifecycle_blocks(report) -> List[_Block]:
    """The request lifecycle of a committed ``ServingReport``, as columns.

    Per tenant: an ``arrive`` instant and a ``queue`` span (arrival →
    service start) at arrival, a ``serve`` span (start → completion), a
    ``complete`` instant, then instants for every rejection, denial, shed
    arrival, abandoned retry chain and replan.  Times scale to ms with one
    numpy multiply, the same IEEE operation as the scalar one.
    """
    blocks: List[_Block] = []
    for tenant in report.tenants:
        track = f"tenant:{tenant.name}"
        arrive_ms = tenant.arrival_s * 1000.0
        start_ms = tenant.start_s * 1000.0
        latency = np.asarray(tenant.latency_ms)
        zeros = np.zeros(arrive_ms.shape)
        tenant_blocks = [
            _Block(track, "request", "arrive", arrive_ms, zeros),
            _Block(track, "request", "queue", arrive_ms, start_ms - arrive_ms),
            _Block(track, "request", "serve", start_ms, latency, (("latency_ms", latency),)),
            _Block(
                track, "request", "complete", tenant.completion_s * 1000.0, zeros,
                (
                    ("deadline_missed", np.asarray(tenant.deadline_missed)),
                    ("response_ms", np.asarray(tenant.response_ms)),
                ),
            ),
        ]
        for kind, name, field in _LIFECYCLE_INSTANTS:
            ts_ms = np.asarray(getattr(tenant, field), dtype=float) * 1000.0
            tenant_blocks.append(_Block(track, kind, name, ts_ms, np.zeros(ts_ms.shape)))
        blocks.extend(block for block in tenant_blocks if len(block.ts_ms))
    return blocks


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

    This eager form appends the events as records now; the simulator uses
    the lazy :meth:`Tracer.defer_report`, which keeps them as columns.
    """
    if not tracer.enabled:
        return
    events = tracer.events
    for block in _lifecycle_blocks(report):
        events.extend(block.events())


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
