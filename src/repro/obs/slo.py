"""Deterministic SLO burn-rate alerting on the simulated clock.

Google-SRE-style multi-window burn-rate alerting, evaluated *inside the
simulation*: a :class:`SLOMonitor` replays a committed ``ServingReport``
on a fixed tick grid and emits a canonical :class:`AlertTimeline` — when
each rule started firing, at what fast/slow burn, and when it resolved.

The **burn rate** of a window is the tenant's effective miss fraction in
that window divided by its SLO target: burn 1.0 consumes the error budget
exactly at the allowed rate, burn 2.0 twice as fast.  A rule fires when
*both* a fast window (pages quickly on cliffs) and a slow window (guards
against one-tick blips) exceed its threshold, and resolves when the fast
window drops back below — the classic fast+slow pairing (e.g. 5m+1h in
wall-clock SRE practice; the defaults here are scaled to simulated-seconds
horizons).  "Miss" follows the same effective-miss convention as the
control plane (:func:`repro.serving.control.effective_miss_rate`): a
completion past its deadline, a predictive-admission denial, an abandoned
retry chain, or a shed arrival all burn budget.

Everything is a pure function of the committed report (plus its windowed
``FleetLoadSeries``, which feeds a fleet-pressure rule): like the derived
trace and the metrics snapshot, the alert timeline inherits the bit-exact
parity contract — ``run_with_parity(compare_analysis=True)`` asserts the
timelines byte-identical across the reference, batched and array loops.

Control-plane wiring: ``AutoscalerConfig(trigger="burn_rate")`` scales the
fleet on the same burn signal (see :mod:`repro.serving.control`), and
:func:`shed_restore_plan` turns page-severity firing intervals into an
advisory shed/restore schedule using the :class:`DegradationPolicy` shed
order.  The plan is advisory by design — in-run shedding must stay a pure
function of the churn trace, or the parity contract would tear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, Histogram


@dataclass(frozen=True)
class BurnRateRule:
    """One fast+slow burn-rate alerting rule.

    Fires when both the ``fast_window_s`` and ``slow_window_s`` trailing
    burn rates reach ``threshold``; resolves when the fast burn drops
    below.  ``severity`` is ``"page"`` (wake someone up — and eligible for
    :func:`shed_restore_plan`) or ``"ticket"``.
    """

    name: str
    fast_window_s: float
    slow_window_s: float
    threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if not all(
            math.isfinite(w) and w > 0 for w in (self.fast_window_s, self.slow_window_s)
        ):
            raise ValueError(
                f"windows must be > 0 and finite, got fast={self.fast_window_s} "
                f"slow={self.slow_window_s}"
            )
        if self.fast_window_s > self.slow_window_s:
            raise ValueError(
                f"fast window ({self.fast_window_s}s) must not exceed the "
                f"slow window ({self.slow_window_s}s)"
            )
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be > 0 and finite, got {self.threshold}")
        if self.severity not in ("page", "ticket"):
            raise ValueError(
                f"severity must be 'page' or 'ticket', got {self.severity!r}"
            )


#: The stock fast/slow pairing, scaled to simulated-seconds horizons: a
#: tight window at high burn pages, a wide window at budget-rate files a
#: ticket (the 5m+1h / 6h+3d ladder of SRE practice, compressed).
DEFAULT_BURN_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast_burn", 5.0, 30.0, 2.0, "page"),
    BurnRateRule("slow_burn", 30.0, 120.0, 1.0, "ticket"),
)

#: Rule name used for the fleet-pressure (utilization) alert.
FLEET_PRESSURE_RULE = "fleet_pressure"


@dataclass(frozen=True)
class AlertEvent:
    """One alert transition: a rule started or stopped firing on a scope."""

    t_s: float
    scope: str  # "tenant:<name>" or "fleet"
    rule: str
    severity: str
    state: str  # "firing" | "resolved"
    fast_burn: float
    slow_burn: float

    def to_line(self) -> str:
        """Canonical byte serialisation (floats via ``repr``)."""
        return " ".join(str(value) for value in self.to_dict().values())

    def to_dict(self) -> Dict:
        floats = ("t_s", "fast_burn", "slow_burn")
        return {
            field.name: float(getattr(self, field.name)) if field.name in floats
            else getattr(self, field.name)
            for field in fields(self)
        }


class FiringInterval(NamedTuple):
    """A closed firing window of one rule on one scope."""

    start_s: float
    end_s: float
    scope: str
    rule: str
    severity: str


class AlertTimeline:
    """The canonical output of one :meth:`SLOMonitor.evaluate` pass."""

    def __init__(
        self,
        rules: Tuple[BurnRateRule, ...],
        tick_s: float,
        start_s: float,
        end_s: float,
        events: List[AlertEvent],
        tenant_summary: Dict[str, Dict],
    ) -> None:
        self.rules = rules
        self.tick_s = tick_s
        self.start_s = start_s
        self.end_s = end_s
        self.events = events
        #: Per-tenant budget summary: target, served/miss counters and the
        #: histogram-estimated p95/p99 response times.
        self.tenant_summary = tenant_summary

    @property
    def num_firing(self) -> int:
        return sum(1 for e in self.events if e.state == "firing")

    @property
    def firing_at_end(self) -> List[Tuple[str, str]]:
        """(scope, rule) pairs still firing when the run ended."""
        open_alerts: Dict[Tuple[str, str], AlertEvent] = {}
        for event in self.events:
            key = (event.scope, event.rule)
            if event.state == "firing":
                open_alerts[key] = event
            else:
                open_alerts.pop(key, None)
        return sorted(open_alerts)

    def firing_intervals(
        self, severity: Optional[str] = None, scope: Optional[str] = None
    ) -> List[FiringInterval]:
        """Closed firing windows (open alerts close at ``end_s``), filtered."""
        open_alerts: Dict[Tuple[str, str], AlertEvent] = {}
        intervals: List[FiringInterval] = []
        for event in self.events:
            key = (event.scope, event.rule)
            if event.state == "firing":
                open_alerts[key] = event
            else:
                started = open_alerts.pop(key, None)
                if started is not None:
                    intervals.append(
                        FiringInterval(
                            started.t_s, event.t_s, event.scope, event.rule,
                            event.severity,
                        )
                    )
        for (scope_name, rule), started in sorted(open_alerts.items()):
            intervals.append(
                FiringInterval(
                    started.t_s, self.end_s, scope_name, rule, started.severity
                )
            )
        intervals.sort()
        if severity is not None:
            intervals = [i for i in intervals if i.severity == severity]
        if scope is not None:
            intervals = [i for i in intervals if i.scope == scope]
        return intervals

    def lines(self) -> List[str]:
        """Canonical byte serialisation — the parity-contract form.

        Two timelines compare equal exactly when every transition happened
        at the same tick with the same burn bits.
        """
        return [event.to_line() for event in self.events]

    def to_dict(self) -> Dict:
        return {
            "tick_s": float(self.tick_s),
            "start_s": float(self.start_s),
            "end_s": float(self.end_s),
            "rules": [
                {
                    "name": rule.name,
                    "fast_window_s": float(rule.fast_window_s),
                    "slow_window_s": float(rule.slow_window_s),
                    "threshold": float(rule.threshold),
                    "severity": rule.severity,
                }
                for rule in self.rules
            ],
            "num_events": len(self.events),
            "num_firing": self.num_firing,
            "firing_at_end": [list(pair) for pair in self.firing_at_end],
            "events": [event.to_dict() for event in self.events],
            "tenants": self.tenant_summary,
        }


class _MissStream:
    """One tenant's effective-miss events: sorted times, bad-count prefix sums.

    ``samples`` holds ``(t_s, bad)`` pairs in any order: a sequence of pairs
    or an ``(n, 2)`` array.
    """

    __slots__ = ("times", "bad_prefix", "target")

    def __init__(self, samples, target: float) -> None:
        pairs = np.asarray(samples, dtype=float).reshape(-1, 2)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))  # (t_s, bad) tuple order
        self.times = pairs[order, 0]
        self.bad_prefix = np.concatenate(([0], np.cumsum(pairs[order, 1].astype(np.int64))))
        self.target = target

    def burn(self, t_s: float, window_s: float) -> float:
        """Burn rate of the trailing window ``(t_s - window_s, t_s]``."""
        return self.burns(np.array([t_s]), window_s).item()

    def burns(self, ticks: np.ndarray, window_s: float) -> np.ndarray:
        """Burn rate of the trailing window ``(t - window_s, t]`` at each tick.

        Integer ``bad``/``total`` counts, then ``(bad / total) / target`` in
        float64 — the scalar division's bits; 0.0 for an empty window.
        """
        hi = np.searchsorted(self.times, ticks, side="right")
        lo = np.searchsorted(self.times, ticks - window_s, side="right")
        total = hi - lo
        rate = np.zeros(len(ticks))
        np.divide(self.bad_prefix[hi] - self.bad_prefix[lo], total, out=rate, where=total > 0)
        return rate / self.target


def _transitions(times, fast, slow, threshold):
    """``(t, (state, fast_burn, slow_burn))`` at each change of a rule's state:
    firing once both burns reach ``threshold``, resolved once the fast burn
    drops below it."""
    firing = False
    for t_s, fast_burn, slow_burn in zip(times, fast, slow):
        if not firing and fast_burn >= threshold and slow_burn >= threshold:
            firing = True
            yield t_s, ("firing", fast_burn, slow_burn)
        elif firing and fast_burn < threshold:
            firing = False
            yield t_s, ("resolved", fast_burn, slow_burn)


class SLOMonitor:
    """Evaluates burn-rate rules over a committed report, deterministically.

    ``tick_s`` is the evaluation grid on the simulated clock; every
    transition lands exactly on a tick (fleet-pressure transitions land on
    ``FleetLoadSeries`` window edges), so the timeline is reproducible to
    the byte.  ``default_target`` stands in for tenants whose SLO pins
    ``target_miss_rate=0.0`` — a zero-budget SLO has no finite burn rate,
    so the monitor treats it as this budget instead.
    ``utilization_threshold`` arms the fleet-pressure rule on the windowed
    mean compute utilization of the ``FleetLoadSeries``.
    """

    def __init__(
        self,
        rules: Sequence[BurnRateRule] = DEFAULT_BURN_RULES,
        tick_s: float = 1.0,
        default_target: float = 0.05,
        utilization_threshold: float = 0.9,
    ) -> None:
        rules = tuple(rules)
        if not rules:
            raise ValueError("need at least one burn-rate rule")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        if FLEET_PRESSURE_RULE in names:
            raise ValueError(f"rule name {FLEET_PRESSURE_RULE!r} is reserved")
        if tick_s <= 0:
            raise ValueError(f"tick_s must be > 0, got {tick_s}")
        if not 0.0 < default_target <= 1.0:
            raise ValueError(
                f"default_target must be in (0, 1], got {default_target}"
            )
        if utilization_threshold <= 0:
            raise ValueError(
                f"utilization_threshold must be > 0, got {utilization_threshold}"
            )
        self.rules = rules
        self.tick_s = float(tick_s)
        self.default_target = float(default_target)
        self.utilization_threshold = float(utilization_threshold)

    # ------------------------------------------------------------------ #
    def _streams(self, report) -> Tuple[Dict[str, _MissStream], float]:
        streams: Dict[str, _MissStream] = {}
        end_s = report.start_s
        for tenant in report.tenants:
            if tenant.slo is None:
                continue
            target = tenant.slo.target_miss_rate or self.default_target
            failures = [
                np.asarray(times, dtype=float)
                for times in (
                    tenant.denied_times_s,
                    tenant.abandoned_times_s,
                    tenant.shed_times_s,
                )
            ]
            times = np.concatenate([np.asarray(tenant.completion_s, dtype=float)] + failures)
            if not times.size:
                continue
            bad = np.ones(times.size)
            bad[: tenant.completion_s.size] = np.asarray(tenant.deadline_missed, dtype=bool)
            streams[tenant.name] = _MissStream(np.column_stack((times, bad)), target)
            end_s = max(end_s, streams[tenant.name].times[-1].item())
        return streams, end_s

    def evaluate(self, report, tracer=None) -> AlertTimeline:
        """Replay the report through the rules; returns the alert timeline.

        Pass the run's ``tracer`` to also land each transition as an
        instant on the ``control:slo`` track of the trace.
        """
        streams, end_s = self._streams(report)
        start_s = report.start_s
        events: List[AlertEvent] = []

        num_ticks = (
            int(math.ceil((end_s - start_s) / self.tick_s)) if end_s > start_s else 0
        )
        ticks = start_s + np.arange(1, num_ticks + 1) * self.tick_s
        tick_list = ticks.tolist()
        for name, stream in streams.items():
            for rule in self.rules:
                fast = stream.burns(ticks, rule.fast_window_s)
                slow = stream.burns(ticks, rule.slow_window_s)
                if not np.any((fast >= rule.threshold) & (slow >= rule.threshold)):
                    continue  # never fires, so never resolves
                events += (
                    AlertEvent(t_s, f"tenant:{name}", rule.name, rule.severity, *change)
                    for t_s, change in _transitions(
                        tick_list, fast.tolist(), slow.tolist(), rule.threshold
                    )
                )

        # Fleet pressure over the windowed load series: the mean compute
        # utilization of each window, evaluated at the window's right edge.
        series = report.fleet.series if report.fleet is not None else None
        if series is not None and series.num_windows:
            utils = series.mean_utilization("compute").tolist()
            edges = [(window + 1) * series.window_ms / 1000.0 for window in range(len(utils))]
            end_s = max([end_s] + edges)
            events += (
                AlertEvent(t_s, "fleet", FLEET_PRESSURE_RULE, "ticket", *change)
                for t_s, change in _transitions(
                    edges, utils, utils, self.utilization_threshold
                )
            )
        events.sort(key=lambda e: (e.t_s, e.scope, e.rule))

        if tracer is not None and getattr(tracer, "enabled", False):
            for event in events:
                tracer.instant(
                    event.t_s * 1000.0,
                    "control:slo",
                    "alert",
                    event.rule,
                    scope=event.scope,
                    severity=event.severity,
                    state=event.state,
                    fast_burn=event.fast_burn,
                    slow_burn=event.slow_burn,
                )

        return AlertTimeline(
            rules=self.rules,
            tick_s=self.tick_s,
            start_s=start_s,
            end_s=end_s,
            events=events,
            tenant_summary=self._tenant_summary(report, streams),
        )

    def _tenant_summary(
        self, report, streams: Dict[str, _MissStream]
    ) -> Dict[str, Dict]:
        # The per-tenant repro_response_ms histogram the metrics recorder
        # builds, and nothing else: its quantiles are all the summary reads.
        response = Histogram(
            "repro_response_ms", "", ("tenant",), buckets=DEFAULT_LATENCY_BUCKETS_MS
        )
        summary: Dict[str, Dict] = {}
        for tenant in report.tenants:
            if tenant.slo is None:
                continue
            stream = streams.get(tenant.name)
            entry: Dict = {
                "target_miss_rate": (
                    tenant.slo.target_miss_rate or self.default_target
                ),
                "served": len(stream.times) if stream is not None else 0,
                "bad": int(stream.bad_prefix[-1]) if stream is not None else 0,
                "p95_ms": None,
                "p99_ms": None,
            }
            if tenant.num_completed:
                response.observe_many(tenant.response_ms, tenant=tenant.name)
                entry["p95_ms"] = response.quantile(95, tenant=tenant.name)
                entry["p99_ms"] = response.quantile(99, tenant=tenant.name)
            summary[tenant.name] = entry
        return summary


class ShedWindow(NamedTuple):
    """Advisory shed interval: which tenants to shed, and when to restore."""

    start_s: float
    end_s: float
    tenants: Tuple[int, ...]

    def to_dict(self) -> Dict:
        return {
            "start_s": float(self.start_s),
            "end_s": float(self.end_s),
            "tenants": list(self.tenants),
        }


def shed_restore_plan(
    timeline: AlertTimeline,
    weights: Sequence[float],
    policy,
    shed_fraction: float = 0.25,
) -> List[ShedWindow]:
    """Turn page-severity firing intervals into a shed/restore schedule.

    While *any* page-severity rule is firing, the plan recommends shedding
    the ``shed_fraction`` lowest-weight tenants — in exactly the
    :meth:`DegradationPolicy.shed_order` preference the capacity-loss path
    uses, so burn-driven and churn-driven shedding always agree on who
    goes first.  Restore is the moment the last overlapping page resolves.
    Advisory by construction: applying it mid-run would make admission a
    function of its own outcome and break the bit-exact parity contract,
    so the operator (or the autoscaler, via ``trigger="burn_rate"``) acts
    on it out of band.
    """
    if not 0.0 < shed_fraction <= 1.0:
        raise ValueError(f"shed_fraction must be in (0, 1], got {shed_fraction}")
    if len(weights) <= 1:
        return []
    order = policy.shed_order(weights)
    count = min(
        max(1, int(math.ceil(shed_fraction * len(weights)))), len(weights) - 1
    )
    victims = tuple(order[:count])
    pages = timeline.firing_intervals(severity="page")
    plan: List[ShedWindow] = []
    for interval in pages:
        if plan and interval.start_s <= plan[-1].end_s:
            plan[-1] = plan[-1]._replace(
                end_s=max(plan[-1].end_s, interval.end_s)
            )
        else:
            plan.append(ShedWindow(interval.start_s, interval.end_s, victims))
    return plan


__all__ = [
    "DEFAULT_BURN_RULES",
    "FLEET_PRESSURE_RULE",
    "AlertEvent",
    "AlertTimeline",
    "BurnRateRule",
    "FiringInterval",
    "SLOMonitor",
    "ShedWindow",
    "shed_restore_plan",
]
