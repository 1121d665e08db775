"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric families; each family holds
one series per label combination.  Everything is designed so two runs that
commit the same schedule produce byte-identical snapshots:

* Histogram buckets are **fixed at declaration** — no adaptive resizing,
  so bucket counts are pure functions of the observed values.
* :meth:`MetricsRegistry.snapshot` and :meth:`MetricsRegistry.to_prometheus`
  sort families by name and series by label values, so registration and
  observation order never matter.
* Values are plain Python ints/floats; sums use sequential addition in
  observation order — the serving integration (:func:`record_serving_report`)
  only feeds it data derived from the committed report, in report order.

The exposition format follows the Prometheus text format (``# HELP`` /
``# TYPE`` headers, ``metric{label="v"} value`` series, histogram
``_bucket``/``_sum``/``_count`` triples with a ``+Inf`` bucket), so the
output of ``repro serve --metrics-json`` (JSON snapshot) has a 1:1 textual
sibling for scrape-style consumption.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.fold import fold_array

#: Default fixed buckets for millisecond latency histograms (upper bounds).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_OK or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(label_names: Tuple[str, ...], labels: Dict[str, str]) -> Tuple[str, ...]:
    if len(labels) != len(label_names) or not all(map(labels.__contains__, label_names)):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(label_names)}"
        )
    return tuple(map(str, map(labels.__getitem__, label_names)))


def _render_labels(label_names: Tuple[str, ...], key: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    body = ",".join(
        f'{name}="{value}"' for name, value in zip(label_names, key)
    )
    return "{" + body + "}"


class Counter:
    """Monotonically increasing sum per label combination."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.series: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0.0) + amount


class Gauge:
    """Last-set value per label combination."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.series: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self.series[_label_key(self.label_names, labels)] = float(value)


class Histogram:
    """Fixed-bucket cumulative histogram per label combination."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Sequence[float],
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram buckets must be strictly increasing and non-empty, "
                f"got {buckets!r}"
            )
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.buckets = bounds
        self._bounds = np.array(bounds)
        # key -> (per-bucket counts (+Inf last), sum, count)
        self.series: Dict[Tuple[str, ...], Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        entry = self.series.get(key)
        if entry is None:
            entry = ([0] * (len(self.buckets) + 1), 0.0, 0)
        counts, total, n = entry
        value = float(value)
        placed = len(self.buckets)  # +Inf bucket by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                placed = i
                break
        counts[placed] += 1
        self.series[key] = (counts, total + value, n + 1)

    def observe_many(self, values: Sequence[float], **labels: str) -> None:
        """Observe a batch of values — bit-identical to ``observe`` in a loop.

        One label lookup for the whole batch; bucket placement of every
        value at once via ``np.searchsorted`` (first bound ``>= value`` —
        the bucket the scalar ``value <= bound`` scan picks, and +Inf for a
        NaN as there) and the sum accumulated by sequential addition in
        observation order, so the resulting series is byte-identical to
        per-value ``observe`` calls, just cheaper.
        """
        self.observe_each([(labels, values)])

    def observe_each(self, batches: Sequence[Tuple[Dict[str, str], Sequence[float]]]) -> None:
        """:meth:`observe_many` of each ``(labels, values)`` batch, in order,
        with the values of every batch placed in one pass."""
        arrays = [np.asarray(values, dtype=float) for _, values in batches]
        width = len(self.buckets) + 1
        places = self._bounds.searchsorted(np.concatenate([np.empty(0)] + arrays))
        places += np.repeat(np.arange(len(arrays)) * width, [len(a) for a in arrays])
        placed = np.bincount(places, minlength=len(arrays) * width).reshape(-1, width)
        for (labels, _), values, row in zip(batches, arrays, placed.tolist()):
            if values.size:
                key = _label_key(self.label_names, labels)
                counts, total, n = self.series.get(key) or ([0] * width, 0.0, 0)
                self.series[key] = (list(map(add, counts, row)), fold_array(values, total), n + values.size)

    def _order_statistic(self, counts: List[int], rank: int) -> float:
        """The ``rank``-th (0-based) observation, reconstructed from buckets.

        Every observation is represented by its bucket's upper bound;
        ``+Inf`` observations clamp to the last finite bound (the estimator
        cannot see past its widest bucket).
        """
        cumulative = 0
        for i, count in enumerate(counts):
            cumulative += count
            if rank < cumulative:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]

    def quantile(self, q: float, **labels: str) -> float:
        """Deterministic quantile estimate from the fixed buckets.

        Observations are reconstructed at their bucket upper bounds and the
        estimate linearly interpolates between the two bracketing order
        statistics, mirroring numpy's ``linear`` method exactly:
        ``h = (n - 1) * q / 100`` and the same two-sided lerp numpy uses.
        When every observation sits exactly on a bucket bound the estimate
        equals ``numpy.percentile`` bit for bit (unit-tested); otherwise it
        is biased toward the bucket upper bound, like any fixed-bucket
        estimator.  ``q`` is in percent (95 for p95).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        key = _label_key(self.label_names, labels)
        entry = self.series.get(key)
        if entry is None:
            raise KeyError(f"no series {labels!r} in histogram {self.name!r}")
        counts, _, n = entry
        h = (n - 1) * (q / 100.0)
        lo = int(h)
        t = h - lo
        lower = self._order_statistic(counts, lo)
        if t == 0.0:
            return lower
        upper = self._order_statistic(counts, lo + 1)
        if t >= 0.5:  # numpy's two-sided lerp, for bit-exact agreement
            return upper - (upper - lower) * (1.0 - t)
        return lower + (upper - lower) * t


class MetricsRegistry:
    """A named collection of metric families with deterministic export."""

    def __init__(self) -> None:
        self._families: Dict[str, object] = {}

    def _register(self, metric):
        existing = self._families.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or existing.label_names != metric.label_names:
                raise ValueError(
                    f"metric {metric.name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        self._families[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "", label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter(_check_name(name), help_text, tuple(label_names)))

    def gauge(self, name: str, help_text: str = "", label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(_check_name(name), help_text, tuple(label_names)))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        return self._register(
            Histogram(_check_name(name), help_text, tuple(label_names), buckets)
        )

    def quantile(self, name: str, q: float, **labels: str) -> float:
        """Quantile estimate from a registered histogram family.

        Convenience over :meth:`Histogram.quantile` so alert rules can ask
        for ``registry.quantile("repro_response_ms", 99, tenant=...)``
        without re-deriving percentiles from raw latencies.
        """
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            raise KeyError(f"no histogram family {name!r} registered")
        return family.quantile(q, **labels)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Deterministic nested-dict dump (families and series sorted)."""
        out: Dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            entry: Dict = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
                entry["series"] = {
                    "|".join(key): {
                        "counts": list(counts),
                        "sum": float(total),
                        "count": int(n),
                    }
                    for key, (counts, total, n) in sorted(family.series.items())
                }
            else:
                entry["series"] = {
                    "|".join(key): float(value)
                    for key, value in sorted(family.series.items())
                }
            out[name] = entry
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every family (sorted, trailing \\n)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            if family.kind == "histogram":
                for key, (counts, total, n) in sorted(family.series.items()):
                    cumulative = 0
                    for bound, count in zip(family.buckets, counts):
                        cumulative += count
                        labels = _render_labels(
                            family.label_names + ("le",), key + (f"{bound:g}",)
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    cumulative += counts[-1]
                    labels = _render_labels(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                    plain = _render_labels(family.label_names, key)
                    lines.append(f"{name}_sum{plain} {total!r}")
                    lines.append(f"{name}_count{plain} {n}")
            else:
                for key, value in sorted(family.series.items()):
                    labels = _render_labels(family.label_names, key)
                    rendered = int(value) if float(value).is_integer() else repr(value)
                    lines.append(f"{name}{labels} {rendered}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# serving integration
# ---------------------------------------------------------------------- #


def record_serving_report(
    registry: MetricsRegistry,
    report,
    buckets: Optional[Sequence[float]] = None,
) -> MetricsRegistry:
    """Populate the standard serving metrics from a committed report.

    A pure function of the ``ServingReport`` (observations happen in report
    order), so — like the derived trace — the metrics inherit the parity
    contract instead of needing their own.  The metric catalogue is
    documented in ``docs/observability.md``.
    """
    buckets = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS_MS
    arrivals = registry.counter(
        "repro_requests_arrived_total", "Requests that arrived", ("tenant",)
    )
    completed = registry.counter(
        "repro_requests_completed_total", "Requests served to completion", ("tenant",)
    )
    outcomes = registry.counter(
        "repro_requests_dropped_total",
        "Requests dropped, by outcome (rejected/denied/shed/abandoned)",
        ("tenant", "outcome"),
    )
    retried = registry.counter(
        "repro_requests_retried_total", "Requests that needed at least one retry",
        ("tenant",),
    )
    missed = registry.counter(
        "repro_deadline_missed_total", "Completed requests past their SLO deadline",
        ("tenant",),
    )
    response = registry.histogram(
        "repro_response_ms", "End-to-end response time (ms)", ("tenant",),
        buckets=buckets,
    )
    latency = registry.histogram(
        "repro_latency_ms", "Service latency (ms)", ("tenant",), buckets=buckets
    )
    depth = registry.gauge(
        "repro_max_queue_depth", "Peak per-tenant queue depth", ("tenant",)
    )
    for tenant in report.tenants:
        name = tenant.name
        arrivals.inc(tenant.num_arrivals, tenant=name)
        completed.inc(tenant.num_completed, tenant=name)
        for outcome, count in (
            ("rejected", tenant.num_rejected),
            ("denied", tenant.num_denied),
            ("shed", tenant.num_shed),
            ("abandoned", tenant.num_abandoned),
        ):
            if count:
                outcomes.inc(count, tenant=name, outcome=outcome)
        if tenant.num_retried:
            retried.inc(tenant.num_retried, tenant=name)
        if tenant.slo is not None:
            missed.inc(int(tenant.deadline_missed.sum()), tenant=name)
        depth.set(int(tenant.max_queue_depth), tenant=name)
    response.observe_each([({"tenant": t.name}, t.response_ms) for t in report.tenants])
    latency.observe_each([({"tenant": t.name}, t.latency_ms) for t in report.tenants])
    run = registry.gauge("repro_run_info", "Run-level aggregates", ("field",))
    run.set(report.epochs, field="epochs")
    run.set(report.cache_hits, field="cache_hits")
    run.set(report.speculated, field="speculated")
    run.set(report.total_completed, field="total_completed")
    run.set(report.throughput_rps, field="throughput_rps")
    run.set(report.deadline_miss_rate, field="deadline_miss_rate")
    if report.fleet is not None:
        gate = registry.gauge(
            "repro_fleet_gate_wait_ms", "Total admission-gate wait (ms)", ()
        )
        gate.set(report.fleet.gate_wait_ms)
        contended = registry.gauge(
            "repro_fleet_contended_requests", "Requests that queued on a lane", ()
        )
        contended.set(report.fleet.contended_requests)
    if report.faults is not None:
        fault_info = registry.gauge(
            "repro_fault_info", "Churn outcome aggregates", ("field",)
        )
        fault_info.set(report.faults.lost_attempts, field="lost_attempts")
        fault_info.set(report.faults.live_at_end, field="live_at_end")
    return registry


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "record_serving_report",
]
