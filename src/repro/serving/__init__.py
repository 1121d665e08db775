"""Multi-tenant open-loop serving on top of the batched evaluation engines.

The paper measures a closed loop — one image in flight, one model, one
cluster.  This package adds the traffic-facing layer the ROADMAP's
"heavy traffic" north star needs:

* :mod:`repro.serving.traffic` — open-loop arrival processes (Poisson,
  bursty MMPP, diurnal, trace replay) behind the ``traffic:`` spec grammar.
* :mod:`repro.serving.tenants` — tenants (model x plan x SLO) with per-tenant
  FIFO queues, admission control, deadline accounting and per-tenant
  adaptation hooks (the Section V-F online controllers plug in unchanged).
* :mod:`repro.serving.dispatch` — cross-tenant cluster dispatch: FIFO /
  deadline-slack / weighted-fair-queueing disciplines and cluster-wide
  concurrency caps for shared-fleet contention
  (:mod:`repro.runtime.contention`).
* :mod:`repro.serving.simulator` — the serving front end: a naive
  per-request reference loop, the contended loop, and the report
  (throughput, latency percentiles, deadline-miss rates and queue-depth
  series per tenant); :func:`run_with_parity` asserts every batched run
  bit-identical to the reference loop.
* :mod:`repro.serving.engine` — the batched loop of independent serving:
  per-tenant NumPy request columns driven by a vectorised time-wheel with
  slot pools and epoch speculation, evaluated through
  :class:`~repro.runtime.batch.BatchPlanEvaluator`.
* :mod:`repro.serving.control` — the predictive control plane: deny-at-
  admission (``ClusterPolicy(admission="predictive")``), the between-windows
  fleet autoscaler and the binary-search capacity planner, all built on the
  contention evaluator's exact completion predictions.
* :mod:`repro.runtime.faults` (consumed here) — seeded fleet churn behind
  the ``churn:`` spec grammar: device crash/leave/join timelines, crash
  detection mid-inference, per-tenant retry with exponential backoff and
  deterministic load shedding under capacity loss, all inside the same
  bit-exact parity contract (``run_with_parity(..., faults=...)``).

The paper's :class:`~repro.runtime.streaming.StreamingSimulator` is the
single-tenant closed-loop special case of this engine.  The subsystem map —
which layer feeds which, and the parity contract binding each fast path to
its reference loop — is drawn in ``docs/architecture.md``.
"""

from repro.serving.control import (
    AutoscaleReport,
    AutoscalerConfig,
    CapacityPlan,
    CapacityPlanConfig,
    CapacityPlanner,
    CapacityProbe,
    FleetAutoscaler,
    effective_miss_rate,
)
from repro.serving.dispatch import (
    ADMISSION_MODES,
    DISCIPLINES,
    PREDICTED_MISS_ACTIONS,
    ClusterPolicy,
    FleetDispatcher,
)
from repro.runtime.faults import (
    CHURN_PREFIX,
    ChurnSpec,
    DegradationPolicy,
    FaultReport,
    FaultTrace,
    RetryPolicy,
    parse_churn_spec,
    resolve_churn,
)
from repro.serving.engine import ArrayServingEngine, vectorizable
from repro.serving.simulator import (
    MODES,
    ParityMismatch,
    ServingReport,
    ServingSimulator,
    assert_reports_equal,
    assert_traces_equal,
    run_with_parity,
)
from repro.serving.tenants import SLO, AdaptationHook, TenantReport, TenantSpec
from repro.serving.traffic import (
    TRAFFIC_PREFIX,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
    parse_traffic_spec,
    resolve_traffic,
)

__all__ = [
    "ADMISSION_MODES",
    "DISCIPLINES",
    "MODES",
    "PREDICTED_MISS_ACTIONS",
    "ClusterPolicy",
    "FleetDispatcher",
    "AutoscaleReport",
    "AutoscalerConfig",
    "CapacityPlan",
    "CapacityPlanConfig",
    "CapacityPlanner",
    "CapacityProbe",
    "FleetAutoscaler",
    "effective_miss_rate",
    "CHURN_PREFIX",
    "ChurnSpec",
    "DegradationPolicy",
    "FaultReport",
    "FaultTrace",
    "RetryPolicy",
    "parse_churn_spec",
    "resolve_churn",
    "ArrayServingEngine",
    "vectorizable",
    "ServingSimulator",
    "ServingReport",
    "ParityMismatch",
    "assert_reports_equal",
    "assert_traces_equal",
    "run_with_parity",
    "SLO",
    "TenantSpec",
    "TenantReport",
    "AdaptationHook",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "TRAFFIC_PREFIX",
    "parse_traffic_spec",
    "resolve_traffic",
]
