"""Cross-tenant cluster dispatch: disciplines, weights and concurrency caps.

When lane contention is modelled (:mod:`repro.runtime.contention`), the
order in which concurrent tenants' requests reach the shared fleet *matters*
— the first request scheduled occupies lanes the next one queues on.  The
:class:`FleetDispatcher` makes that order an explicit, pluggable policy:

``fifo``
    Release-time order: the request dispatched earliest in simulated time
    goes first (ties broken by tenant position).
``deadline``
    Priority by deadline slack: the request whose SLO deadline leaves the
    least slack at dispatch (``arrival + deadline - release``) goes first;
    tenants without an SLO sort last.
``wfq``
    Weighted fair queueing by least attained normalised service: each
    tenant accumulates ``latency / weight`` virtual time as its requests are
    served, and the tenant with the smallest virtual time goes first — a
    tenant with twice the weight receives twice the fleet throughput under
    backlog (:attr:`~repro.serving.tenants.TenantSpec.weight`).

All three disciplines are deterministic functions of information available
at selection time, which is what lets the contended reference and batched
event loops pick the identical global order — a precondition for their
bit-identity.  The same determinism is why the dispatch order is inherently
*sequential*: each selection depends on every earlier completion, so the
array serving engine (:mod:`repro.serving.engine`) never vectorises across
it — contended array runs keep this dispatcher's canonical order and take
their speedup from the vectorised lane residuals instead.  Within one
tenant, requests enter the dispatcher one at a time regardless of the
tenant's :attr:`~repro.serving.tenants.TenantSpec.slots` pool (slot
overlap is an independent-serving construct; under contention the fleet,
not the tenant, is the concurrency bottleneck being modelled).

:class:`ClusterPolicy` bundles the discipline with the cluster-wide
``max_inflight`` admission cap and the predictive-admission mode; passing a
policy to :meth:`~repro.serving.simulator.ServingSimulator.run` is what
switches the serving loop from independent per-tenant slots to shared-fleet
contention.  See ``docs/architecture.md`` for where dispatch sits in the
subsystem map and ``docs/operations.md`` for choosing a discipline and
admission mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.serving.tenants import Dispatch, TenantSpec

#: Cross-tenant scheduling disciplines understood by the dispatcher.
DISCIPLINES: Tuple[str, ...] = ("fifo", "deadline", "wfq")

#: Admission modes: admit everything, or consult the contended prediction.
ADMISSION_MODES: Tuple[str, ...] = ("none", "predictive")

#: What to do with a request whose prediction misses its SLO deadline.
PREDICTED_MISS_ACTIONS: Tuple[str, ...] = ("reject", "requeue")


#: LRU capacity of the batched loop's contended-schedule memo.
SCHEDULE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class ClusterPolicy:
    """Shared-fleet serving policy (contention model + dispatch discipline).

    Parameters
    ----------
    discipline:
        One of :data:`DISCIPLINES`; decides which pending request reaches
        the fleet next.
    max_inflight:
        Cluster-wide cap on concurrently in-flight requests.  Requests
        beyond it wait at the admission gate (the wait counts toward their
        response time).  ``None`` leaves concurrency bounded only by the
        tenants' own service slots.
    admission:
        ``"none"`` admits every dispatched request; ``"predictive"`` asks
        the contention evaluator for the predicted completion at release
        time and intercepts requests whose prediction already misses the
        tenant's SLO deadline (tenants without an SLO are never
        intercepted).
    on_predicted_miss:
        What predictive admission does with an intercepted request:
        ``"reject"`` denies it outright (counted per tenant in
        ``num_denied``); ``"requeue"`` defers its release to the fleet's
        next lane-free event and re-predicts — a request that can never
        meet its deadline (even on an idle fleet) is denied.
    window_ms:
        Bucket width of the :class:`~repro.runtime.contention.FleetLoadSeries`
        attached to the run's fleet report.  ``None`` (default) records run
        totals only — the series costs per-commit bookkeeping, so it is
        opt-in.
    """

    discipline: str = "fifo"
    max_inflight: Optional[int] = None
    admission: str = "none"
    on_predicted_miss: str = "reject"
    window_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {self.discipline!r}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 (or None), got {self.max_inflight}"
            )
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {self.admission!r}"
            )
        if self.on_predicted_miss not in PREDICTED_MISS_ACTIONS:
            raise ValueError(
                f"on_predicted_miss must be one of {PREDICTED_MISS_ACTIONS}, "
                f"got {self.on_predicted_miss!r}"
            )
        if self.window_ms is not None and not (
            math.isfinite(self.window_ms) and self.window_ms > 0
        ):
            raise ValueError(
                f"window_ms must be > 0 and finite (or None), got {self.window_ms}"
            )


class FleetDispatcher:
    """Selects which tenant's pending request is scheduled next.

    One instance per serving run; both event loops drive the same instance
    code path, so the global request order — and therefore every contended
    schedule — is decided identically in both.
    """

    def __init__(self, discipline: str, specs: Sequence[TenantSpec]) -> None:
        if discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {discipline!r}"
            )
        self.discipline = discipline
        self._specs = list(specs)
        self._vtime = [0.0] * len(self._specs)

    def selection_key(self, index: int, dispatch: Dispatch) -> Tuple:
        """Sort key of one pending dispatch (smaller = served sooner)."""
        if self.discipline == "fifo":
            return (dispatch.start_s, index)
        if self.discipline == "deadline":
            slo = self._specs[index].slo
            slack = (
                dispatch.arrival_s + slo.deadline_ms / 1000.0 - dispatch.start_s
                if slo is not None
                else float("inf")
            )
            return (slack, dispatch.start_s, index)
        return (self._vtime[index], dispatch.start_s, index)

    def select(self, pending: Dict[int, Dispatch], horizon_s: Optional[float] = None) -> int:
        """Index of the tenant whose dispatch goes to the fleet next.

        ``horizon_s`` is the time the fleet stays busy (its latest lane
        busy-until).  Priority only reorders requests that actually compete
        for a busy fleet: dispatches released while the fleet still works —
        ``start_s <= max(earliest pending release, horizon)`` — are
        *eligible* and compete by discipline; a dispatch released after the
        fleet drains cannot overtake earlier work it never contended with
        (that inversion would charge an idle-fleet request for lane
        occupancy created in its future).  ``None`` disables the window
        (pure priority order).
        """
        if not pending:
            raise ValueError("select() called with no pending dispatches")
        candidates = pending
        if horizon_s is not None:
            cutoff = max(min(d.start_s for d in pending.values()), horizon_s)
            candidates = {
                index: d for index, d in pending.items() if d.start_s <= cutoff
            }
        return min(
            candidates, key=lambda index: self.selection_key(index, candidates[index])
        )

    def account(self, index: int, latency_ms: float) -> None:
        """Record served work (advances WFQ virtual time; no-op otherwise)."""
        if self.discipline == "wfq":
            self._vtime[index] += latency_ms / self._specs[index].weight


__all__ = [
    "ADMISSION_MODES",
    "DISCIPLINES",
    "PREDICTED_MISS_ACTIONS",
    "SCHEDULE_MEMO_SIZE",
    "ClusterPolicy",
    "FleetDispatcher",
]
