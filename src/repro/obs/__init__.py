"""Deterministic observability for the planner and serving stack.

Capture (trace/metrics/profile) plus interpretation (analysis/slo), all
opt-in:

* :mod:`repro.obs.trace` — structured span/event records for the full
  request lifecycle (arrive → admit/deny/requeue → queue → dispatch →
  per-lane compute/send/recv segments → complete/retry/shed), the fault
  timeline (crash/leave/join) and the control plane (capacity probes,
  autoscale windows).  Events are timestamped on the **simulated** clock
  and canonically ordered, so a run's trace is a pure function of its
  committed schedule — which puts tracing *inside* the parity contract:
  reference, batched and array loops emit byte-identical traces
  (``run_with_parity`` asserts it).  Exportable as Chrome trace-event JSON
  (Perfetto-loadable; one track per device lane, one per tenant).
* :mod:`repro.obs.metrics` — a registry of counters / gauges /
  fixed-bucket histograms with deterministic snapshots and Prometheus
  text exposition export.
* :mod:`repro.obs.analysis` — critical-path latency attribution: tiles
  every request's latency into gate / per-lane compute / send / recv /
  stall segments that telescope to the measured latency bit-exactly, with
  per-tenant rollups and a fleet bottleneck ranking (``repro analyze``).
* :mod:`repro.obs.slo` — deterministic SRE-style fast/slow burn-rate
  alerting over the committed report and windowed fleet load, emitting a
  canonical alert timeline that is part of the parity contract and feeds
  the autoscaler (``trigger="burn_rate"``) and degradation planning.
* :mod:`repro.obs.profile` — a host-time profiler that, for the length of
  one command, wraps a declared table of entry points (``LAYERS``) and
  reports calls, busy time and self time per layer plus the command's
  total and the part no layer covers.  No source carries a hook: when
  ``--profile`` is off nothing is installed.  Profiling measures *this
  machine's* wall time and is explicitly **excluded** from parity.

The span taxonomy, metrics catalogue and Perfetto how-to live in
``docs/observability.md``.
"""

from repro.obs.analysis import (
    AnalysisError,
    AnalysisReport,
    RequestAttribution,
    analyze_chrome,
    analyze_events,
    analyze_serving,
    analyze_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    record_serving_report,
)
from repro.obs.profile import Profiler
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    AlertEvent,
    AlertTimeline,
    BurnRateRule,
    SLOMonitor,
    shed_restore_plan,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    events_from_chrome,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "RequestAttribution",
    "analyze_chrome",
    "analyze_events",
    "analyze_serving",
    "analyze_trace",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "record_serving_report",
    "Profiler",
    "DEFAULT_BURN_RULES",
    "AlertEvent",
    "AlertTimeline",
    "BurnRateRule",
    "SLOMonitor",
    "shed_restore_plan",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "events_from_chrome",
]
