"""Formatting helpers for printing paper-style result tables."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.utils.fold import fold_sum


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Render an aligned text table (shared by the IPS and serving tables)."""
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    lines = [title] if title else []
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_ips_table(
    results: Mapping[str, Mapping[str, float]],
    methods: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Format a {scenario: {method: IPS}} mapping as an aligned text table."""
    if not results:
        return "(no results)"
    if methods is None:
        methods = sorted({m for row in results.values() for m in row})
    header = ["scenario"] + list(methods)
    rows = []
    for scenario, row in results.items():
        rows.append([scenario] + [f"{row.get(m, float('nan')):.1f}" for m in methods])
    return _render_table(header, rows, title)


def format_series(series: Mapping[str, Mapping], title: str = "") -> str:
    """Format nested {name: {x: value}} series as text."""
    lines = [title] if title else []
    for name, values in series.items():
        parts = []
        for key, value in values.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.2f}")
            else:
                parts.append(f"{key}={value}")
        lines.append(f"{name}: " + ", ".join(parts))
    return "\n".join(lines)


def format_serving_table(report, title: str = "") -> str:
    """Format a :class:`~repro.serving.simulator.ServingReport` as a table.

    Duck-typed on the report's tenant rows so this module stays free of
    package imports; one row per tenant plus an aggregate footer.
    """
    header = [
        "tenant", "arrivals", "done", "rejected", "denied", "rps",
        "p50_ms", "p95_ms", "p99_ms", "miss%", "replans",
    ]
    rows = []
    for t in report.tenants:
        rows.append([
            t.name,
            str(t.num_arrivals),
            str(t.num_completed),
            str(t.num_rejected),
            str(getattr(t, "num_denied", 0)),
            f"{t.throughput_rps(report.start_s):.2f}",
            f"{t.p50_response_ms:.1f}",
            f"{t.p95_response_ms:.1f}",
            f"{t.p99_response_ms:.1f}",
            f"{100.0 * t.deadline_miss_rate:.1f}",
            str(len(t.replan_times_s)),
        ])
    rows.append([
        "TOTAL",
        str(report.total_arrivals),
        str(report.total_completed),
        str(report.total_rejected),
        str(getattr(report, "total_denied", 0)),
        f"{report.throughput_rps:.2f}",
        f"{report.response_percentile_ms(50):.1f}",
        f"{report.response_percentile_ms(95):.1f}",
        f"{report.response_percentile_ms(99):.1f}",
        f"{100.0 * report.deadline_miss_rate:.1f}",
        str(sum(len(t.replan_times_s) for t in report.tenants)),
    ])
    return _render_table(header, rows, title)


def format_fleet_table(report, title: str = "") -> str:
    """Format a contended run's per-device lane breakdown as a table.

    Duck-typed on ``report.fleet``
    (:class:`~repro.runtime.contention.FleetLoadReport`); one row per
    provider with each lane's busy time, utilisation over the makespan and
    accumulated queueing delay, plus an aggregate footer carrying the
    admission-gate wait and the share of dispatches that found a non-idle
    fleet.
    """
    fleet = getattr(report, "fleet", None)
    if fleet is None:
        return "(no fleet breakdown; run with a ClusterPolicy)"
    header = [
        "device", "comp_busy_ms", "comp_util%", "send_busy_ms", "recv_busy_ms",
        "comp_wait_ms", "send_wait_ms", "recv_wait_ms",
    ]
    comp_util = fleet.utilization("compute")
    rows = []
    for j, device_id in enumerate(fleet.device_ids):
        rows.append([
            device_id,
            f"{fleet.compute_busy_ms[j]:.1f}",
            f"{100.0 * comp_util[j]:.1f}",
            f"{fleet.send_busy_ms[j]:.1f}",
            f"{fleet.recv_busy_ms[j]:.1f}",
            f"{fleet.compute_wait_ms[j]:.1f}",
            f"{fleet.send_wait_ms[j]:.1f}",
            f"{fleet.recv_wait_ms[j]:.1f}",
        ])
    table = _render_table(header, rows, title)
    footer = (
        f"requests: {fleet.requests}  contended: {fleet.contended_requests} "
        f"({100.0 * fleet.contended_share:.1f}%)  "
        f"gate wait: {fleet.gate_wait_ms:.1f} ms  "
        f"lane wait total: {fleet.total_wait_ms:.1f} ms"
    )
    return table + "\n" + footer


def format_fault_report(report, title: str = "") -> str:
    """Format a churning run's fault outcome as a table.

    Duck-typed on ``report.faults``
    (:class:`~repro.runtime.faults.FaultReport`); one row per tenant with
    its shed/abandoned/retried counts plus a fleet-level footer carrying
    the event tally, surviving capacity and retry latency overhead.
    """
    faults = getattr(report, "faults", None)
    if faults is None:
        return "(no fault report; run with a churn trace)"
    header = ["tenant", "shed", "abandoned", "retried", "lost_att", "retry_add_ms"]
    rows = []
    for t in report.tenants:
        rows.append([
            t.name,
            str(t.num_shed),
            str(t.num_abandoned),
            str(t.num_retried),
            str(t.num_lost_attempts),
            f"{t.retry_added_ms:.1f}",
        ])
    table = _render_table(header, rows, title)
    degraded = fold_sum(hi - lo for lo, hi in faults.degraded_windows_s)
    footer = (
        f"events: {faults.num_crashes} crashes, {faults.num_leaves} leaves, "
        f"{faults.num_joins} joins  live at end: {faults.live_at_end}  "
        f"degraded: {degraded:.1f} s  "
        f"retry latency added: {faults.retry_latency_added_ms:.1f} ms"
    )
    return table + "\n" + footer


def format_capacity_plan(plan, title: str = "") -> str:
    """Format a :class:`~repro.serving.control.CapacityPlan` probe log.

    One row per probed fleet size (in probe order) plus a verdict footer;
    duck-typed so this module stays free of package imports.
    """
    header = ["probe", "devices", "completed", "denied", "rps", "eff_miss%", "feasible"]
    rows = []
    for i, probe in enumerate(plan.probes):
        rows.append([
            str(i),
            str(probe.num_devices),
            str(probe.completed),
            str(probe.denied),
            f"{probe.throughput_rps:.2f}",
            f"{100.0 * probe.miss_rate:.2f}",
            "yes" if probe.feasible else "no",
        ])
    table = _render_table(header, rows, title)
    if plan.min_feasible_devices is None:
        verdict = (
            f"no feasible fleet size in [{plan.config.min_devices}, "
            f"{plan.config.max_devices}] for target miss rate "
            f"{100.0 * plan.config.target_miss_rate:.2f}%"
        )
    else:
        verdict = (
            f"minimum fleet: {plan.min_feasible_devices} devices for target miss "
            f"rate {100.0 * plan.config.target_miss_rate:.2f}% "
            f"({plan.num_probe_runs} probes, budget {plan.config.max_probes}, "
            f"{plan.strategy})"
        )
    return table + "\n" + verdict


def format_autoscale_report(report, title: str = "") -> str:
    """Format a :class:`~repro.serving.control.AutoscaleReport` as a table.

    One row per window with fleet size, utilisation and the scaling action
    taken at the window boundary; duck-typed like the other formatters.
    """
    burn = getattr(report.config, "trigger", "utilization") == "burn_rate"
    header = [
        "window", "devices", "util%", "arrivals", "completed", "denied",
        "miss%",
    ]
    if burn:
        header += ["fast_burn", "slow_burn"]
    header += ["decision", "next"]
    rows = []
    for w in report.windows:
        row = [
            str(w.index),
            str(w.num_devices),
            f"{100.0 * w.utilization:.1f}",
            str(w.arrivals),
            str(w.completed),
            str(w.denied),
            f"{100.0 * w.miss_rate:.2f}",
        ]
        if burn:
            row += [
                f"{getattr(w, 'fast_burn', 0.0):.2f}",
                f"{getattr(w, 'slow_burn', 0.0):.2f}",
            ]
        row += [w.decision, str(w.next_devices)]
        rows.append(row)
    table = _render_table(header, rows, title)
    trajectory = report.device_trajectory
    footer = (
        f"windows: {len(report.windows)}  "
        f"devices: {min(trajectory) if trajectory else 0}"
        f"..{max(trajectory) if trajectory else 0}  "
        f"final: {report.final_devices}"
    )
    return table + "\n" + footer


def format_attribution_table(analysis, title: str = "") -> str:
    """Format an :class:`~repro.obs.analysis.AnalysisReport` per tenant.

    One row per tenant with its milliseconds by breakdown bucket (queueing,
    gate wait, per-role lane service, stalls, uncontended service) plus the
    dominant bucket; footer totals and the exactness verdict.  Duck-typed
    like the other formatters.
    """
    header = [
        "tenant", "reqs", "queue_ms", "gate_ms", "compute_ms", "send_ms",
        "recv_ms", "stall_ms", "service_ms", "wait_ms", "backoff_ms", "dominant",
    ]
    rows = []
    for t in analysis.tenants:
        rows.append([
            t.name,
            str(t.requests),
            f"{t.queue_ms:.1f}",
            f"{t.by_label['gate']:.1f}",
            f"{t.by_label['compute']:.1f}",
            f"{t.by_label['send']:.1f}",
            f"{t.by_label['recv']:.1f}",
            f"{t.by_label['stall']:.1f}",
            f"{t.by_label['service']:.1f}",
            f"{t.lane_wait_ms:.1f}",
            f"{t.retry_backoff_ms:.1f}",
            t.dominant,
        ])
    table = _render_table(header, rows, title)
    footer = (
        f"requests: {analysis.num_requests} "
        f"({analysis.contended_requests} contended, "
        f"{analysis.truncated_attempts} truncated attempts)  "
        f"latency: {analysis.total('latency_ms'):.1f} ms  "
        f"attribution: "
        f"{'exact (tilings close bit-for-bit)' if analysis.exact else 'INEXACT'}"
    )
    return table + "\n" + footer


def format_bottleneck_table(analysis, title: str = "", top: int | None = None) -> str:
    """Format the fleet bottleneck ranking: lanes by critical-path ms.

    ``critical_ms`` is time the lane spent on some request's final
    (committed) attempt; ``share`` its fraction of all lane-attributed
    critical-path time.  ``busy_ms``/``wait_ms``/``jobs`` are raw occupancy
    including lost (truncated) attempts.
    """
    lanes = analysis.lanes if top is None else analysis.lanes[: max(top, 0)]
    if not lanes:
        return "(no lane activity; run with a ClusterPolicy to see lanes)"
    header = [
        "rank", "lane", "device", "role", "critical_ms", "share%",
        "busy_ms", "wait_ms", "jobs",
    ]
    rows = []
    for rank, lane in enumerate(lanes, start=1):
        rows.append([
            str(rank),
            lane.lane,
            lane.device,
            lane.role,
            f"{lane.critical_ms:.1f}",
            f"{100.0 * lane.share:.1f}",
            f"{lane.busy_ms:.1f}",
            f"{lane.wait_ms:.1f}",
            str(lane.jobs),
        ])
    table = _render_table(header, rows, title)
    shown = len(lanes)
    footer = f"bottleneck: {analysis.bottleneck}"
    if shown < len(analysis.lanes):
        footer += f"  (showing top {shown} of {len(analysis.lanes)} lanes)"
    return table + "\n" + footer


#: Stacked-bar glyph per breakdown bucket (legend printed under the chart).
_BREAKDOWN_GLYPHS = (
    ("queue", "q"), ("gate", "g"), ("compute", "C"), ("send", "S"),
    ("recv", "R"), ("stall", "."), ("service", "s"),
)


def format_breakdown_chart(analysis, width: int = 48, title: str = "") -> str:
    """Render the per-tenant latency breakdown as stacked text bars.

    Each tenant's bar spans its total response milliseconds (queue wait
    plus latency) scaled to the widest tenant; one glyph per bucket,
    largest-remainder rounding so a bar's glyph count is deterministic.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    tenants = [t for t in analysis.tenants if t.requests]
    if not tenants:
        return "(no completed requests to chart)"

    def buckets(t) -> list:
        values = [("queue", t.queue_ms)]
        values += [(label, t.by_label[label]) for label, _ in _BREAKDOWN_GLYPHS[1:]]
        return values

    glyphs = dict(_BREAKDOWN_GLYPHS)
    scale = max(t.queue_ms + t.latency_ms for t in tenants)
    name_w = max(len(t.name) for t in tenants)
    lines = [title] if title else []
    for t in tenants:
        total = t.queue_ms + t.latency_ms
        bar_cells = int(round(width * total / scale)) if scale > 0 else 0
        values = buckets(t)
        bar = ""
        if bar_cells > 0 and total > 0:
            # Largest-remainder apportionment of the bar's cells.
            quotas = [(label, bar_cells * value / total) for label, value in values]
            counts = {label: int(q) for label, q in quotas}
            leftover = bar_cells - sum(counts.values())
            by_remainder = sorted(
                quotas, key=lambda lq: (-(lq[1] - int(lq[1])), lq[0])
            )
            for label, _ in by_remainder[:leftover]:
                counts[label] += 1
            bar = "".join(glyphs[label] * counts[label] for label, _ in values)
        lines.append(f"{t.name.ljust(name_w)} |{bar.ljust(width)}| {total:.1f} ms")
    legend = "  ".join(f"{glyph}={label}" for label, glyph in _BREAKDOWN_GLYPHS)
    lines.append(f"legend: {legend}  (bars scaled to the widest tenant)")
    return "\n".join(lines)


def format_alert_timeline(timeline, title: str = "") -> str:
    """Format an :class:`~repro.obs.slo.AlertTimeline` as a table.

    One row per alert transition (chronological); footer with the rule
    set, still-firing alerts and the per-tenant budget summary.
    """
    header = ["t_s", "scope", "rule", "severity", "state", "fast_burn", "slow_burn"]
    rows = []
    for e in timeline.events:
        rows.append([
            f"{e.t_s:.2f}",
            e.scope,
            e.rule,
            e.severity,
            e.state,
            f"{e.fast_burn:.2f}",
            f"{e.slow_burn:.2f}",
        ])
    if rows:
        table = _render_table(header, rows, title)
    else:
        table = (title + "\n" if title else "") + "(no alerts fired)"
    rules = ", ".join(
        f"{r.name}({r.fast_window_s:g}s/{r.slow_window_s:g}s x{r.threshold:g}, "
        f"{r.severity})"
        for r in timeline.rules
    )
    still = timeline.firing_at_end
    footer = (
        f"rules: {rules}  tick: {timeline.tick_s:g}s  "
        f"horizon: [{timeline.start_s:g}, {timeline.end_s:g}] s  "
        f"transitions: {len(timeline.events)}  "
        f"firing at end: "
        f"{', '.join(f'{s}/{r}' for s, r in still) if still else 'none'}"
    )
    return table + "\n" + footer


def speedup_summary(results: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Per-scenario DistrEdge speedup over the best baseline."""
    out: Dict[str, float] = {}
    for scenario, row in results.items():
        if "distredge" not in row:
            continue
        baselines = [v for k, v in row.items() if k != "distredge"]
        if baselines:
            out[scenario] = row["distredge"] / max(baselines)
    return out


__all__ = [
    "format_ips_table",
    "format_series",
    "format_serving_table",
    "format_fleet_table",
    "format_fault_report",
    "format_capacity_plan",
    "format_autoscale_report",
    "format_attribution_table",
    "format_bottleneck_table",
    "format_breakdown_chart",
    "format_alert_timeline",
    "speedup_summary",
]
