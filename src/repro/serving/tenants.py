"""Tenants: model x plan x SLO, with FIFO queues and deadline accounting.

A *tenant* is one traffic stream served by the shared cluster: a
:class:`~repro.runtime.plan.DistributionPlan` (its model and strategy), an
arrival process (open-loop) or a closed-loop request budget, an optional
:class:`SLO` deadline, a bounded FIFO queue with admission control, and an
optional adaptation hook (the Section V-F controllers of
:mod:`repro.core.online` plug in here, so replanning happens *under* load).

:class:`TenantRuntime` is the behavioural core of the serving simulator: it
advances one tenant's request chain — admission, queueing, dispatch, hook
invocation, deadline accounting — request by request.  The simulator's
scalar loop (the reference loop, which in a batched run also serves the
tenants with hooks or queue caps) and its contended loop drive this runtime;
the array engine's column tenants (:mod:`repro.serving.engine`) replay its
float operations in array passes, and ``run_with_parity`` holds the two
bit-identical.

Service model: the cluster grants each tenant a pool of ``slots`` service
slots (``slots=1`` is the paper's one-image-in-flight protocol, per stream).
A request is issued to the earliest-free slot, so up to ``slots`` of one
tenant's requests are in flight concurrently while the *records* stay in
request order — the reordering-safe commit the array serving engine
(:mod:`repro.serving.engine`) exploits.  Cross-tenant interference on
compute/network lanes is modelled only when a
:class:`~repro.serving.dispatch.ClusterPolicy` switches the serving loop to
shared-fleet contention (:mod:`repro.runtime.contention`).

Predictive admission (:mod:`repro.serving.control`) adds two transitions to
the chain: a pending dispatch may be *denied* (:meth:`TenantRuntime.deny_pending`
— dropped unserved, counted in ``num_denied``) or *deferred*
(:meth:`TenantRuntime.defer_pending` — re-released later).  Fleet churn
(:mod:`repro.runtime.faults`) adds three more: a pending dispatch killed by a
mid-inference crash may be *retried* (:meth:`TenantRuntime.retry_pending` —
re-released after backoff, the lost attempt counted) or *abandoned*
(:meth:`TenantRuntime.abandon_pending` — dropped at the crash, the slot held
until then), and a :class:`~repro.runtime.faults.DegradationPolicy` may
*shed* open-loop arrivals at construction time (counted in ``num_shed``,
never entering the queue).  See ``docs/architecture.md`` for the subsystem
map.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.runtime.plan import DistributionPlan
from repro.serving.traffic import ArrivalProcess

#: Adaptation hook signature (identical to the streaming simulator's):
#: called before each dispatch with ``(time_seconds, request_index,
#: current_plan, latency_history_ms)`` and may return a replacement plan
#: (or ``None`` to keep the current one).
AdaptationHook = Callable[[float, int, DistributionPlan, List[float]], Optional[DistributionPlan]]


@dataclass(frozen=True)
class SLO:
    """Service-level objective: a response-time deadline per request.

    ``deadline_ms`` bounds the *response* time (completion minus arrival,
    queueing included).  Requests that exceed it are still served to
    completion but counted as deadline misses; ``target_miss_rate`` is the
    acceptable miss fraction used by :meth:`ServingReport.slo_violations`
    style summaries (purely descriptive — it does not change scheduling).
    """

    deadline_ms: float
    target_miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.deadline_ms < math.inf):
            raise ValueError(f"deadline_ms must be > 0 and finite, got {self.deadline_ms}")
        if not 0.0 <= self.target_miss_rate <= 1.0:
            raise ValueError(
                f"target_miss_rate must be in [0, 1], got {self.target_miss_rate}"
            )


@dataclass
class TenantSpec:
    """Declarative description of one tenant.

    Parameters
    ----------
    name:
        Unique tenant label (report rows, CLI output).
    plan:
        Initial distribution plan; all tenants' plans must cover the
        simulator's cluster.
    traffic:
        Open-loop arrival process — or ``None`` for a *closed-loop* tenant
        whose next request is issued only when the previous one completed
        (plus ``gap_ms`` think time).  The single-tenant closed-loop case is
        exactly the paper's streaming protocol
        (:class:`~repro.runtime.streaming.StreamingSimulator` is this spec).
    slo:
        Optional deadline; ``None`` disables miss accounting.
    queue_capacity:
        Admission control: maximum requests *waiting* (the in-service request
        excluded).  Arrivals beyond it are rejected and counted.  ``None``
        means unbounded.
    adaptation_hook / hook_factory:
        Per-tenant replanning hook.  ``hook_factory`` builds a fresh hook per
        :meth:`ServingSimulator.run` call — required for parity runs, which
        execute the workload twice and need stateful controllers reset in
        between.  Pass at most one of the two.
    max_requests:
        Serve at most this many requests (required for closed-loop tenants,
        optional cap for open-loop ones — at the cap, queued and still-to-come
        arrivals are counted as rejected, so the report reflects the full
        offered load).
    gap_ms:
        Closed-loop think time between a completion and the next request.
    max_duration_s:
        Closed-loop only: stop issuing requests once the tenant's simulated
        clock has advanced this far past the run start.
    weight:
        Fair-share weight under the ``wfq`` cross-tenant discipline
        (:mod:`repro.serving.dispatch`): a tenant with twice the weight
        receives twice the fleet throughput under backlog.  Ignored by the
        other disciplines and by contention-free serving.
    slots:
        Within-tenant concurrency: the number of service slots in the
        tenant's pool.  Each request is issued to the earliest-free slot
        (requests are *recorded* in arrival order regardless — the
        reordering-safe commit), so ``slots=2`` lets two of the tenant's
        requests overlap in simulated time.  Closed-loop tenants run one
        closed chain per slot.  Default ``1`` reproduces the paper's
        one-image-in-flight protocol exactly.
    """

    name: str
    plan: DistributionPlan
    traffic: Optional[ArrivalProcess] = None
    slo: Optional[SLO] = None
    queue_capacity: Optional[int] = None
    adaptation_hook: Optional[AdaptationHook] = None
    hook_factory: Optional[Callable[[], AdaptationHook]] = None
    max_requests: Optional[int] = None
    gap_ms: float = 0.0
    max_duration_s: Optional[float] = None
    weight: float = 1.0
    slots: int = 1

    def __post_init__(self) -> None:
        if self.traffic is None and self.max_requests is None:
            raise ValueError(
                f"tenant {self.name!r}: closed-loop tenants (traffic=None) need "
                "max_requests to bound the run"
            )
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError(
                f"tenant {self.name!r}: max_requests must be >= 1, got {self.max_requests}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"tenant {self.name!r}: queue_capacity must be >= 1 (or None), "
                f"got {self.queue_capacity}"
            )
        if self.gap_ms < 0:
            raise ValueError(f"tenant {self.name!r}: gap_ms must be >= 0, got {self.gap_ms}")
        if self.traffic is not None and (self.gap_ms != 0 or self.max_duration_s is not None):
            raise ValueError(
                f"tenant {self.name!r}: gap_ms and max_duration_s are closed-loop "
                "knobs (traffic=None); open-loop pacing comes from the arrival "
                "process and duration_s"
            )
        if self.adaptation_hook is not None and self.hook_factory is not None:
            raise ValueError(
                f"tenant {self.name!r}: pass adaptation_hook or hook_factory, not both"
            )
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0, got {self.weight}")
        if not isinstance(self.slots, int) or self.slots < 1:
            raise ValueError(
                f"tenant {self.name!r}: slots must be an int >= 1, got {self.slots!r}"
            )

    @property
    def closed_loop(self) -> bool:
        return self.traffic is None

    def make_hook(self) -> Optional[AdaptationHook]:
        """The hook for one simulator run (fresh if a factory was given)."""
        if self.hook_factory is not None:
            return self.hook_factory()
        return self.adaptation_hook


@dataclass(frozen=True)
class Dispatch:
    """One prepared request: where the chain pauses for plan evaluation."""

    arrival_s: float
    start_s: float
    plan: DistributionPlan


@dataclass
class TenantReport:
    """Per-tenant serving outcome: request series, SLO and queue metrics."""

    name: str
    slo: Optional[SLO]
    arrival_s: np.ndarray
    start_s: np.ndarray
    completion_s: np.ndarray
    latency_ms: np.ndarray
    response_ms: np.ndarray
    deadline_missed: np.ndarray
    num_arrivals: int
    num_rejected: int
    rejected_times_s: List[float]
    replan_times_s: List[float]
    queue_depth_series: np.ndarray  # (events, 2): time_s, depth after the event
    final_method: str
    busy_until_s: float
    # Predictive-admission denials (deny-at-admission, repro.serving.control):
    # requests dropped at release time because their predicted completion
    # already missed the SLO deadline.  Distinct from queue rejections
    # (num_rejected), which happen at *arrival* on a full queue.
    num_denied: int = 0
    denied_times_s: List[float] = field(default_factory=list)
    # Fleet-churn outcomes (repro.runtime.faults): arrivals shed by the
    # degradation policy, requests abandoned after exhausting their retry
    # budget, crashed (lost) attempts, and the extra pre-service delay retried
    # requests accumulated before their successful attempt started.
    num_shed: int = 0
    shed_times_s: List[float] = field(default_factory=list)
    num_abandoned: int = 0
    abandoned_times_s: List[float] = field(default_factory=list)
    num_lost_attempts: int = 0
    num_retried: int = 0
    retry_added_ms: float = 0.0

    @property
    def num_completed(self) -> int:
        return int(self.latency_ms.size)

    @property
    def num_admitted(self) -> int:
        return self.num_arrivals - self.num_rejected - self.num_shed

    @property
    def makespan_s(self) -> float:
        return float(self.completion_s.max()) if self.num_completed else 0.0

    def throughput_rps(self, since_s: float = 0.0) -> float:
        """Completed requests per second of simulated time since ``since_s``."""
        if not self.num_completed:
            return 0.0
        span = self.makespan_s - since_s
        return self.num_completed / span if span > 0 else float("inf")

    @property
    def mean_latency_ms(self) -> float:
        return float(self.latency_ms.mean()) if self.num_completed else 0.0

    @property
    def mean_response_ms(self) -> float:
        return float(self.response_ms.mean()) if self.num_completed else 0.0

    def response_percentile_ms(self, q: float) -> float:
        """``q``-th percentile (0-100) of the response time in ms."""
        return float(np.percentile(self.response_ms, q)) if self.num_completed else 0.0

    @property
    def p50_response_ms(self) -> float:
        return self.response_percentile_ms(50)

    @property
    def p95_response_ms(self) -> float:
        return self.response_percentile_ms(95)

    @property
    def p99_response_ms(self) -> float:
        return self.response_percentile_ms(99)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed deadlines as a fraction of completed requests."""
        if self.slo is None or not self.num_completed:
            return 0.0
        return float(self.deadline_missed.mean())

    @property
    def slo_satisfied(self) -> bool:
        """Whether the miss rate stayed within the SLO's target."""
        if self.slo is None:
            return True
        return self.deadline_miss_rate <= self.slo.target_miss_rate

    @property
    def max_queue_depth(self) -> int:
        if self.queue_depth_series.size == 0:
            return 0
        return int(self.queue_depth_series[:, 1].max())


class TenantRuntime:
    """One tenant's live state while the serving event loop runs.

    The request chain is processed strictly sequentially within the tenant:
    the loop alternates :meth:`prepare` (admit arrivals, pick the
    head-of-line request, run the adaptation hook) and :meth:`commit`
    (record the evaluated latency, advance the earliest-free service slot).
    With ``slots > 1`` completions may *overlap* in simulated time, but
    request ``i``'s start depends only on commits ``0..i-1`` (the slot pool
    is a min-heap of free times), so the chain — and every record — stays in
    request order: the reordering-safe commit.  Every loop that drives a
    runtime — the scalar loop in both modes and the contended loop — drives
    exactly this sequence with exactly these arguments, so every stateful
    effect — admission decisions, hook invocations, replan logs — happens
    identically everywhere.
    """

    def __init__(
        self,
        spec: TenantSpec,
        start_s: float,
        duration_s: Optional[float],
        shed_intervals: Optional[List[Tuple[float, float]]] = None,
    ) -> None:
        self.spec = spec
        self.start_s = float(start_s)
        self.hook = spec.make_hook()
        self.current_plan = spec.plan
        self.done = False
        self._pending: Optional[Dispatch] = None
        self._served = 0
        # Slot pool: min-heap of slot free-up times.  Equal initial entries
        # form a valid heap without heapify; slots=1 degenerates to the
        # single service-slot clock of earlier revisions.
        self._slot_free_s: List[float] = [self.start_s] * spec.slots

        self.shed_times: List[float] = []
        if spec.closed_loop:
            self._arrivals = np.empty(0)
        else:
            if duration_s is None:
                raise ValueError(
                    f"tenant {spec.name!r} is open-loop; the simulator needs duration_s"
                )
            self._arrivals = spec.traffic.arrival_times(duration_s, start_s)
            if shed_intervals:
                # Degradation shedding is decided at arrival time from the
                # (trace, weights) alone — a pure function every loop shares —
                # so shed arrivals are filtered out of the stream up front and
                # never enter the queue.
                keep = np.ones(self._arrivals.size, dtype=bool)
                for lo, hi in shed_intervals:
                    keep &= ~((self._arrivals >= lo) & (self._arrivals < hi))
                self.shed_times = [float(t) for t in self._arrivals[~keep]]
                self._arrivals = self._arrivals[keep]
        self._next_arrival = 0
        self._queue: Deque[float] = deque()

        # Fault/retry chain state for the pending dispatch.
        self._prepared = 0
        self._pending_ordinal = 0
        self._pending_attempt = 1
        self._pending_first_start_s = 0.0

        # Outcome accumulators.
        self.arrivals_seen = 0
        self.rejected_times: List[float] = []
        self.denied_times: List[float] = []
        self.abandoned_times: List[float] = []
        self.num_lost_attempts = 0
        self.num_retried = 0
        self.retry_added_ms = 0.0
        self.replan_times: List[float] = []
        self.latencies_ms: List[float] = []
        self.responses_ms: List[float] = []
        self.req_arrival_s: List[float] = []
        self.req_start_s: List[float] = []
        self.req_completion_s: List[float] = []
        self.missed: List[bool] = []
        self.depth_events: List[tuple] = []

    # ------------------------------------------------------------------ #
    @property
    def _free_s(self) -> float:
        """When the tenant's *earliest* service slot frees up (heap min)."""
        return self._slot_free_s[0]

    @property
    def busy_until_s(self) -> float:
        """When the tenant's *last* service slot frees up (heap max)."""
        return max(self._slot_free_s)

    # ------------------------------------------------------------------ #
    def _admit_until(self, t_s: float) -> None:
        """Process open-loop arrivals with time <= ``t_s`` (admission control).

        An arrival is admitted when fewer than ``queue_capacity`` requests
        are waiting at its instant (the in-service request does not occupy
        the queue), otherwise rejected and counted.  Arrivals tied with a
        dispatch time are processed before the dispatch.
        """
        capacity = self.spec.queue_capacity
        while (
            self._next_arrival < self._arrivals.size
            and self._arrivals[self._next_arrival] <= t_s
        ):
            arrival = float(self._arrivals[self._next_arrival])
            self._next_arrival += 1
            self.arrivals_seen += 1
            if capacity is not None and len(self._queue) >= capacity:
                self.rejected_times.append(arrival)
            else:
                self._queue.append(arrival)
                self.depth_events.append((arrival, len(self._queue)))

    def _next_request(self) -> Optional[float]:
        """Arrival time of the next request to serve, advancing admission."""
        if self.spec.closed_loop:
            return self._free_s  # issued the moment the slot frees up
        if not self._queue:
            if self._next_arrival >= self._arrivals.size:
                return None
            # Idle tenant: jump to the next arrival (queue empty => admitted).
            self._admit_until(float(self._arrivals[self._next_arrival]))
        return self._queue[0]

    def prepare(self) -> Optional[Dispatch]:
        """Advance to the next dispatch; returns ``None`` when the tenant is done.

        Admits arrivals up to the dispatch instant, invokes the adaptation
        hook (counting a replan only when the returned plan's *strategy*
        differs from the current one — see
        :meth:`DistributionPlan.same_strategy`), and parks the dispatch until
        :meth:`commit` delivers its evaluated latency.
        """
        if self.done or self._pending is not None:
            raise RuntimeError(f"tenant {self.spec.name!r}: prepare() out of order")
        if self.spec.max_requests is not None and self._served >= self.spec.max_requests:
            # Service closed at the request cap: the rest of the offered load
            # — both the unexamined arrival stream and requests already
            # waiting in the queue — is counted as rejected, so num_arrivals
            # reflects the full stream, num_admitted == num_completed, and
            # the queue-depth series drains to zero (no-op for closed-loop
            # tenants, which have no stream).
            while self._queue:
                self.rejected_times.append(self._queue.popleft())
                self.depth_events.append((self._free_s, len(self._queue)))
            while self._next_arrival < self._arrivals.size:
                arrival = float(self._arrivals[self._next_arrival])
                self._next_arrival += 1
                self.arrivals_seen += 1
                self.rejected_times.append(arrival)
            self.done = True
            return None
        arrival = self._next_request()
        if arrival is None:
            self.done = True
            return None
        start = max(self._free_s, arrival)
        if not self.spec.closed_loop:
            self._admit_until(start)
        if self.hook is not None:
            replacement = self.hook(start, self._served, self.current_plan, self.latencies_ms)
            if replacement is not None and not self.current_plan.same_strategy(replacement):
                self.current_plan = replacement
                self.replan_times.append(start)
        self._pending = Dispatch(arrival_s=arrival, start_s=start, plan=self.current_plan)
        self._pending_ordinal = self._prepared
        self._prepared += 1
        self._pending_attempt = 1
        self._pending_first_start_s = start
        return self._pending

    def commit(self, latency_ms: float) -> None:
        """Record the evaluated latency of the pending dispatch."""
        dispatch = self._pending
        if dispatch is None:
            raise RuntimeError(f"tenant {self.spec.name!r}: commit() without prepare()")
        self._pending = None
        if self._pending_attempt > 1:
            # The request completed on a retry attempt: the delay between its
            # first release and this attempt's release is retry-added latency.
            self.num_retried += 1
            self.retry_added_ms += (dispatch.start_s - self._pending_first_start_s) * 1000.0
        completion = dispatch.start_s + latency_ms / 1000.0
        response_ms = (completion - dispatch.arrival_s) * 1000.0
        self.req_arrival_s.append(dispatch.arrival_s)
        self.req_start_s.append(dispatch.start_s)
        self.req_completion_s.append(completion)
        self.latencies_ms.append(float(latency_ms))
        self.responses_ms.append(response_ms)
        slo = self.spec.slo
        self.missed.append(bool(slo is not None and response_ms > slo.deadline_ms))
        self._served += 1
        if self.spec.closed_loop:
            self.arrivals_seen += 1
            heapq.heapreplace(
                self._slot_free_s,
                dispatch.start_s + (latency_ms + self.spec.gap_ms) / 1000.0,
            )
            if (
                self.spec.max_duration_s is not None
                and self._free_s - self.start_s >= self.spec.max_duration_s
            ):
                self.done = True
        else:
            self._queue.popleft()
            self.depth_events.append((dispatch.start_s, len(self._queue)))
            heapq.heapreplace(self._slot_free_s, completion)

    def deny_pending(self) -> None:
        """Drop the pending dispatch: predictive admission denied it.

        The request leaves the system unserved at its release instant —
        no service slot is consumed and no latency recorded; the denial is
        counted in ``denied_times``.  A closed-loop tenant's chain advances
        (the denial consumes one of its ``max_requests``, so a permanently
        infeasible deadline cannot spin the loop); an open-loop tenant's
        queue pops as if the request had been dispatched.
        """
        dispatch = self._pending
        if dispatch is None:
            raise RuntimeError(f"tenant {self.spec.name!r}: deny_pending() without prepare()")
        self._pending = None
        self.denied_times.append(dispatch.start_s)
        if self.spec.closed_loop:
            self.arrivals_seen += 1
            self._served += 1
            heapq.heapreplace(
                self._slot_free_s, dispatch.start_s + self.spec.gap_ms / 1000.0
            )
            if (
                self.spec.max_duration_s is not None
                and self._free_s - self.start_s >= self.spec.max_duration_s
            ):
                self.done = True
        else:
            self._queue.popleft()
            self.depth_events.append((dispatch.start_s, len(self._queue)))

    def defer_pending(self, new_start_s: float) -> Dispatch:
        """Re-queue the pending dispatch to a later release time.

        Predictive admission's ``"requeue"`` action: the request stays
        pending but is released at ``new_start_s`` (strictly later), when
        the fleet's state has changed and the prediction may clear the
        deadline.  Open-loop arrivals up to the new release are admitted —
        exactly what :meth:`prepare` would have done at that start.  The
        adaptation hook is *not* re-invoked (the request was already
        planned).
        """
        dispatch = self._pending
        if dispatch is None:
            raise RuntimeError(f"tenant {self.spec.name!r}: defer_pending() without prepare()")
        if new_start_s <= dispatch.start_s:
            raise ValueError(
                f"tenant {self.spec.name!r}: defer_pending needs a strictly later "
                f"start, got {new_start_s} <= {dispatch.start_s}"
            )
        if not self.spec.closed_loop:
            self._admit_until(new_start_s)
        self._pending = Dispatch(
            arrival_s=dispatch.arrival_s, start_s=new_start_s, plan=dispatch.plan
        )
        return self._pending

    # ------------------------------------------------------------------ #
    # fleet-churn transitions (repro.runtime.faults)
    # ------------------------------------------------------------------ #
    @property
    def pending_attempt(self) -> int:
        """Attempt number (1-based) of the pending dispatch's current try."""
        return self._pending_attempt

    @property
    def pending_ordinal(self) -> int:
        """Per-tenant dispatch ordinal of the pending request (retry-jitter
        counter: identical across loops because the prepare sequence is)."""
        return self._pending_ordinal

    @property
    def pending_first_start_s(self) -> float:
        """Release time of the pending request's *first* attempt."""
        return self._pending_first_start_s

    def retry_pending(self, new_start_s: float) -> Dispatch:
        """Re-release the pending dispatch after a mid-inference crash.

        The crashed attempt is counted as lost; the request stays pending
        and re-enters dispatch at ``new_start_s`` (crash instant plus the
        retry policy's backoff, strictly later than the failed release).
        Like :meth:`defer_pending`, open-loop arrivals up to the new release
        are admitted and the adaptation hook is not re-invoked — replanning
        around the dead device happens at the serving loop's next selection.
        """
        dispatch = self._pending
        if dispatch is None:
            raise RuntimeError(f"tenant {self.spec.name!r}: retry_pending() without prepare()")
        if new_start_s <= dispatch.start_s:
            raise ValueError(
                f"tenant {self.spec.name!r}: retry_pending needs a strictly later "
                f"start, got {new_start_s} <= {dispatch.start_s}"
            )
        self.num_lost_attempts += 1
        self._pending_attempt += 1
        if not self.spec.closed_loop:
            self._admit_until(new_start_s)
        self._pending = Dispatch(
            arrival_s=dispatch.arrival_s, start_s=new_start_s, plan=dispatch.plan
        )
        return self._pending

    def abandon_pending(self, abandon_s: float, lost: int = 0) -> None:
        """Drop the pending dispatch at a crash: its retry budget is spent.

        Unlike a denial the request *did* occupy its service slot — from its
        release until the crash at ``abandon_s`` — so the slot is advanced to
        the abandon instant (plus think time for closed-loop chains).
        ``lost`` extra crashed attempts are added to the lost-attempt count.
        """
        dispatch = self._pending
        if dispatch is None:
            raise RuntimeError(f"tenant {self.spec.name!r}: abandon_pending() without prepare()")
        if abandon_s < dispatch.start_s:
            raise ValueError(
                f"tenant {self.spec.name!r}: abandon_pending needs abandon_s >= the "
                f"release, got {abandon_s} < {dispatch.start_s}"
            )
        self._pending = None
        self.abandoned_times.append(abandon_s)
        self.num_lost_attempts += int(lost)
        self._served += 1
        if self.spec.closed_loop:
            self.arrivals_seen += 1
            heapq.heapreplace(
                self._slot_free_s, abandon_s + self.spec.gap_ms / 1000.0
            )
            if (
                self.spec.max_duration_s is not None
                and self._free_s - self.start_s >= self.spec.max_duration_s
            ):
                self.done = True
        else:
            self._queue.popleft()
            self.depth_events.append((dispatch.start_s, len(self._queue)))
            heapq.heapreplace(self._slot_free_s, abandon_s)

    def commit_resolved(self, resolved) -> None:
        """Commit a :class:`~repro.runtime.faults.ResolvedRequest` — the
        uncontended loops' one-commit-per-request fault resolution."""
        self.num_lost_attempts += resolved.lost_attempts
        if resolved.status == "abandoned":
            self.abandon_pending(resolved.abandon_s)
            return
        if resolved.retried:
            self.num_retried += 1
            self.retry_added_ms += resolved.retry_added_ms
        self.commit(resolved.latency_ms)

    # ------------------------------------------------------------------ #
    def report(self) -> TenantReport:
        if self._pending is not None:
            raise RuntimeError(f"tenant {self.spec.name!r}: report() with a pending dispatch")
        depth = (
            np.asarray(self.depth_events, dtype=np.float64)
            if self.depth_events
            else np.empty((0, 2))
        )
        return TenantReport(
            name=self.spec.name,
            slo=self.spec.slo,
            arrival_s=np.asarray(self.req_arrival_s),
            start_s=np.asarray(self.req_start_s),
            completion_s=np.asarray(self.req_completion_s),
            latency_ms=np.asarray(self.latencies_ms),
            response_ms=np.asarray(self.responses_ms),
            deadline_missed=np.asarray(self.missed, dtype=bool),
            num_arrivals=self.arrivals_seen + len(self.shed_times),
            num_rejected=len(self.rejected_times),
            rejected_times_s=list(self.rejected_times),
            replan_times_s=list(self.replan_times),
            queue_depth_series=depth,
            final_method=self.current_plan.method,
            busy_until_s=self.busy_until_s,
            num_denied=len(self.denied_times),
            denied_times_s=list(self.denied_times),
            num_shed=len(self.shed_times),
            shed_times_s=list(self.shed_times),
            num_abandoned=len(self.abandoned_times),
            abandoned_times_s=list(self.abandoned_times),
            num_lost_attempts=self.num_lost_attempts,
            num_retried=self.num_retried,
            retry_added_ms=self.retry_added_ms,
        )


__all__ = [
    "SLO",
    "TenantSpec",
    "TenantRuntime",
    "TenantReport",
    "Dispatch",
    "AdaptationHook",
]
