"""Multi-tenant open-loop serving simulator: a reference and a batched loop.

:class:`ServingSimulator` drives a set of :class:`~repro.serving.tenants.TenantSpec`
streams against one shared cluster.  Two event loops produce **bit-identical**
results:

* ``mode="reference"`` — the naive loop: every dispatched request is
  evaluated with one scalar ``evaluator.evaluate(plan, t)`` call.  This is
  the semantics oracle (and the baseline the ``bench-serve`` CI gate measures
  against).
* ``mode="batched"`` (default) — the production loop: the array-native
  column time-wheel of :mod:`repro.serving.engine`.  Per-tenant NumPy
  request columns are committed in speculation windows; each epoch groups
  the tenants' next evaluations by instantaneous network-state signature
  (:func:`~repro.runtime.batch.network_state_signature` — the only thing
  evaluation depends on besides the plan itself) and evaluates each group in
  a single :meth:`~repro.runtime.batch.BatchPlanEvaluator.evaluate_plans`
  call.  Equal signatures guarantee equal results, and the batch engine is
  bit-exact with the scalar evaluator, so the batched loop matches the
  reference loop bit for bit; :func:`run_with_parity` asserts exactly that.
  On a constant (or piecewise-constant) network whole timelines commit from
  one evaluation; on continuously-varying dynamic traces the windows shrink
  toward single requests — never to wrong answers.  Tenants the columns
  cannot express (adaptation hooks, open-loop queue caps) are served by the
  reference loop's scalar chain in the same run.

Tenant chains are independent (each tenant owns its service slots, see
:mod:`repro.serving.tenants`), which is what lets an epoch advance all of
them in lockstep without reordering any tenant's own sequential decisions.

Passing a :class:`~repro.serving.dispatch.ClusterPolicy` replaces the
independent-tenants model with **shared-fleet contention**: requests reach
persistent per-device lanes in the policy's discipline order (FIFO /
deadline-slack / WFQ, optionally capped by ``max_inflight``) and queue on
each other's lane occupancy (:mod:`repro.runtime.contention`).  The same
two-loop discipline applies there: the reference mode re-walks every request
scalar-ly, the batched mode groups equal ``(network state, lane occupancy)``
signatures through a contended-schedule memo, and :func:`run_with_parity`
asserts the two bit-identical — fleet breakdown included.

With ``policy.admission="predictive"`` the contended loop consults the
evaluator's *prediction* before committing each request and denies (or
re-queues) those whose predicted completion already misses the SLO deadline
— deny-at-admission, the entry point of the predictive control plane
(:mod:`repro.serving.control`).  The subsystem map and the full set of
parity contracts live in ``docs/architecture.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry, record_serving_report
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.contention import (
    ContendedOutcome,
    ContentionAwareEvaluator,
    FleetLoadReport,
    SharedFleetState,
    truncated_outcome,
)
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.faults import (
    ChurnSpec,
    DegradationPolicy,
    FaultContext,
    FaultReport,
    FaultTrace,
    RetryPolicy,
    build_fault_context,
    build_fault_report,
    emit_fault_timeline,
    emit_resolution,
    resolve_faulted_request,
)
from repro.serving.dispatch import SCHEDULE_MEMO_SIZE, ClusterPolicy, FleetDispatcher
from repro.serving.engine import ArrayServingEngine, vectorizable
from repro.serving.tenants import Dispatch, TenantReport, TenantRuntime, TenantSpec
from repro.utils.cache import LRUCache

#: Event-loop modes.
MODES = ("batched", "reference")


@dataclass
class ServingReport:
    """Outcome of one serving run: per-tenant reports plus aggregates."""

    tenants: List[TenantReport]
    start_s: float
    duration_s: Optional[float]
    mode: str
    epochs: int = 0
    evaluator_kind: str = ""
    #: Shared-fleet contention (set when a :class:`ClusterPolicy` drove the run).
    contention: bool = False
    discipline: str = ""
    max_inflight: Optional[int] = None
    #: Evaluations skipped by caching (the column tenants' latency memos in
    #: the independent batched loop; the contended-schedule memo under
    #: contention).
    cache_hits: int = 0
    #: Per-device lane-utilisation and queueing-delay breakdown (contended runs).
    fleet: Optional[FleetLoadReport] = None
    #: Requests committed by epoch speculation without their own evaluation
    #: (independent batched runs only; informational, not part of the parity
    #: contract).
    speculated: int = 0
    #: Admission mode the run used (``"none"`` or ``"predictive"``) and what
    #: predictive admission did with predicted misses (``"reject"`` /
    #: ``"requeue"``; empty for non-predictive runs).
    admission: str = "none"
    on_predicted_miss: str = ""
    #: Churn outcome summary (set when a fault trace drove the run).
    faults: Optional[FaultReport] = None

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.name == name:
                return report
        raise KeyError(f"no tenant {name!r}; tenants: {[t.name for t in self.tenants]}")

    @property
    def total_completed(self) -> int:
        return sum(t.num_completed for t in self.tenants)

    @property
    def total_arrivals(self) -> int:
        return sum(t.num_arrivals for t in self.tenants)

    @property
    def total_rejected(self) -> int:
        return sum(t.num_rejected for t in self.tenants)

    @property
    def total_denied(self) -> int:
        """Requests dropped by predictive admission across all tenants."""
        return sum(t.num_denied for t in self.tenants)

    @property
    def total_shed(self) -> int:
        """Arrivals shed by the degradation policy across all tenants."""
        return sum(t.num_shed for t in self.tenants)

    @property
    def total_abandoned(self) -> int:
        """Requests abandoned after exhausting their retry budget."""
        return sum(t.num_abandoned for t in self.tenants)

    @property
    def makespan_s(self) -> float:
        """Last completion relative to the run start."""
        ends = [t.makespan_s for t in self.tenants if t.num_completed]
        return max(ends) - self.start_s if ends else 0.0

    @property
    def throughput_rps(self) -> float:
        """Aggregate completed requests per second of simulated time."""
        span = self.makespan_s
        return self.total_completed / span if span > 0 else 0.0

    def response_percentile_ms(self, q: float) -> float:
        """Percentile of the response time pooled over every tenant."""
        pooled = [t.response_ms for t in self.tenants if t.num_completed]
        if not pooled:
            return 0.0
        return float(np.percentile(np.concatenate(pooled), q))

    @property
    def deadline_miss_rate(self) -> float:
        """Pooled miss fraction over tenants that declare an SLO."""
        missed = total = 0
        for t in self.tenants:
            if t.slo is not None:
                missed += int(t.deadline_missed.sum())
                total += t.num_completed
        return missed / total if total else 0.0

    @property
    def slo_violations(self) -> List[str]:
        """Names of tenants whose miss rate exceeded their SLO target."""
        return [t.name for t in self.tenants if not t.slo_satisfied]

    def to_dict(self) -> Dict:
        """Machine-readable dump (the shape ``repro serve --report-json`` writes).

        Mirrors the ``BENCH_*.json`` artifact style: plain floats/ints at the
        top level, one row per tenant, and the fleet breakdown when the run
        modelled contention.
        """
        out: Dict = {
            "mode": self.mode,
            "speculated": int(self.speculated),
            "evaluator_kind": self.evaluator_kind,
            "start_s": float(self.start_s),
            "duration_s": None if self.duration_s is None else float(self.duration_s),
            "epochs": int(self.epochs),
            "cache_hits": int(self.cache_hits),
            "contention": bool(self.contention),
            "discipline": self.discipline,
            "max_inflight": self.max_inflight,
            "admission": self.admission,
            "on_predicted_miss": self.on_predicted_miss,
            "total_arrivals": int(self.total_arrivals),
            "total_completed": int(self.total_completed),
            "total_rejected": int(self.total_rejected),
            "total_denied": int(self.total_denied),
            "total_shed": int(self.total_shed),
            "total_abandoned": int(self.total_abandoned),
            "makespan_s": float(self.makespan_s),
            "throughput_rps": float(self.throughput_rps),
            "p50_response_ms": float(self.response_percentile_ms(50)),
            "p95_response_ms": float(self.response_percentile_ms(95)),
            "p99_response_ms": float(self.response_percentile_ms(99)),
            "deadline_miss_rate": float(self.deadline_miss_rate),
            "slo_violations": list(self.slo_violations),
            "tenants": [
                {
                    "name": t.name,
                    "deadline_ms": None if t.slo is None else float(t.slo.deadline_ms),
                    "num_arrivals": int(t.num_arrivals),
                    "num_completed": int(t.num_completed),
                    "num_rejected": int(t.num_rejected),
                    "num_denied": int(t.num_denied),
                    "throughput_rps": float(t.throughput_rps(self.start_s)),
                    "mean_latency_ms": float(t.mean_latency_ms),
                    "mean_response_ms": float(t.mean_response_ms),
                    "p50_response_ms": float(t.p50_response_ms),
                    "p95_response_ms": float(t.p95_response_ms),
                    "p99_response_ms": float(t.p99_response_ms),
                    "deadline_miss_rate": float(t.deadline_miss_rate),
                    "slo_satisfied": bool(t.slo_satisfied),
                    "num_replans": len(t.replan_times_s),
                    "max_queue_depth": int(t.max_queue_depth),
                    "final_method": t.final_method,
                    "num_shed": int(t.num_shed),
                    "num_abandoned": int(t.num_abandoned),
                    "num_lost_attempts": int(t.num_lost_attempts),
                    "num_retried": int(t.num_retried),
                    "retry_added_ms": float(t.retry_added_ms),
                }
                for t in self.tenants
            ],
        }
        if self.fleet is not None:
            out["fleet"] = self.fleet.to_dict()
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out


def _emit_contended_commit(
    tracer: Tracer,
    lane_keys,
    device_ids: List[str],
    tenant_name: str,
    release_ms: float,
    outcome: ContendedOutcome,
    truncated: bool = False,
) -> None:
    """Emit one committed contended schedule: a dispatch instant plus one
    busy span per lane the request occupied.

    Both modes run this at the very commit sites of the shared contended
    loop on the same ``ContendedOutcome`` floats (a memo hit replays the
    fresh walk's floats bit for bit), so the emitted events inherit the
    parity contract.  Lane spans are placed at ``release + end_rel - busy``
    — the contiguous busy window the outcome's lane accounting records.
    """
    track = f"tenant:{tenant_name}"
    args = {
        "gate_wait_ms": outcome.gate_wait_ms,
        "latency_ms": outcome.latency_ms,
        "contended": outcome.contended,
    }
    if truncated:
        args["truncated"] = True
    tracer.instant(release_ms, track, "request", "dispatch", **args)
    for (device, role), end_rel, busy, wait, jobs in zip(
        lane_keys,
        outcome.lane_end_rel,
        outcome.lane_busy_ms,
        outcome.lane_wait_ms,
        outcome.lane_jobs,
    ):
        if not jobs or busy <= 0.0:
            continue
        tracer.span(
            release_ms + end_rel - busy,
            busy,
            f"lane:{device_ids[device]}:{role}",
            "lane",
            role,
            tenant=tenant_name,
            wait_ms=wait,
            jobs=jobs,
        )


def _response_ms(dispatch: Dispatch, latency_ms: float) -> float:
    """The response time :meth:`TenantRuntime.commit` records, bit for bit."""
    return ((dispatch.start_s + latency_ms / 1000.0) - dispatch.arrival_s) * 1000.0


class ServingSimulator:
    """Serves tenant request streams through a plan evaluator.

    Parameters
    ----------
    evaluator:
        The evaluator bound to the shared cluster: any
        :class:`~repro.runtime.evaluator.PlanEvaluator`.  Batched runs
        without a cluster policy group plans through its ``evaluate_plans``,
        which a :class:`~repro.runtime.batch.BatchPlanEvaluator` vectorises
        and a plain evaluator answers plan by plan.
    """

    def __init__(self, evaluator: PlanEvaluator) -> None:
        self.evaluator = evaluator

    # ------------------------------------------------------------------ #
    def _check(
        self,
        tenants: Sequence[TenantSpec],
        duration_s: Optional[float],
        mode: str,
        policy: Optional[ClusterPolicy] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        n = len(self.evaluator.devices)
        for spec in tenants:
            if spec.plan.num_devices != n:
                raise ValueError(
                    f"tenant {spec.name!r}: plan covers {spec.plan.num_devices} "
                    f"devices, cluster has {n}"
                )
            if not spec.closed_loop and duration_s is None:
                raise ValueError(
                    f"tenant {spec.name!r} is open-loop; pass duration_s to bound "
                    "its arrival horizon"
                )
        if duration_s is not None and not (0 < duration_s < math.inf):
            raise ValueError(f"duration_s must be > 0 and finite, got {duration_s}")

    def run(
        self,
        tenants: Sequence[TenantSpec],
        duration_s: Optional[float] = None,
        start_s: float = 0.0,
        mode: str = "batched",
        policy: Optional[ClusterPolicy] = None,
        schedule_memo: Optional[LRUCache] = None,
        faults: Union[str, ChurnSpec, FaultTrace, None] = None,
        retry: Optional[RetryPolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ServingReport:
        """Simulate the tenants' traffic and return the serving report.

        ``duration_s`` bounds the open-loop arrival horizon (arrivals land in
        ``[start_s, start_s + duration_s)``); every admitted request is then
        served to completion, so the makespan may exceed the duration.
        Closed-loop tenants are bounded by their own ``max_requests`` /
        ``max_duration_s`` instead.

        ``policy`` switches on shared-fleet contention: requests are
        dispatched onto persistent per-device lanes in the policy's
        discipline order and queue on each other's lane occupancy (see
        :mod:`repro.runtime.contention`).  Without a policy every tenant's
        requests see an idle fleet at dispatch — the independent-tenants
        model of earlier revisions, reproduced exactly.  Contention-free
        batched runs go through the vectorised column time-wheel
        (:mod:`repro.serving.engine`), except tenants with adaptation hooks
        or open-loop queue caps, which the scalar loop serves; contended
        runs keep the canonical sequential dispatcher order (the contended
        loop batches via its schedule memo and the vectorised lane
        residuals).

        ``schedule_memo`` shares an externally-owned contended-schedule LRU
        across runs (capacity-planner probe reuse); it requires a contended
        batched run — the reference loop must stay memo-free to remain the
        oracle.  (Sound under churn too: fault decisions happen *outside*
        the memoized walk, whose key already captures every walk input.)

        ``faults`` switches on fleet churn: a ``churn:`` spec string,
        :class:`~repro.runtime.faults.ChurnSpec` or
        :class:`~repro.runtime.faults.FaultTrace` scheduling device
        join/leave/crash events.  Requests whose plan touches a crashed
        device mid-flight are failed at detection and routed through
        ``retry`` (default :class:`~repro.runtime.faults.RetryPolicy`);
        ``degradation`` sheds lowest-weight tenants' arrivals while the live
        fleet fraction is below its threshold.  All decisions are pure
        functions shared by every loop, so churn lives under the same
        bit-exact parity contract as everything else.

        ``tracer`` collects the run's deterministic trace (see
        :mod:`repro.obs.trace`): the request lifecycle is derived from the
        committed report, while facts the report drops (contended lane
        spans, requeues, retry chains, the fault timeline) are emitted live
        from code paths shared by every mode — so the trace itself is under
        the parity contract.  ``metrics`` is populated from the committed
        report via :func:`repro.obs.metrics.record_serving_report`.  Both
        default to off and cost nothing when off.
        """
        self._check(tenants, duration_s, mode, policy)
        if schedule_memo is not None and (policy is None or mode != "batched"):
            raise ValueError(
                "schedule_memo requires a contended batched run "
                f"(got policy={policy!r}, mode={mode!r})"
            )
        fault_ctx = build_fault_context(
            faults,
            retry,
            degradation,
            len(self.evaluator.devices),
            [spec.weight for spec in tenants],
            start_s,
            duration_s,
        )
        tracer = NULL_TRACER if tracer is None else tracer
        engine_run = policy is None and mode == "batched"
        # One list for every loop, indexed like ``tenants``: the engine's
        # column tenants get ``None`` here and are served by the engine.
        runtimes: List[Optional[TenantRuntime]] = [
            (
                None
                if engine_run and vectorizable(spec)
                else TenantRuntime(
                    spec,
                    start_s,
                    duration_s,
                    shed_intervals=list(fault_ctx.shed_intervals[i]),
                )
            )
            for i, spec in enumerate(tenants)
        ]
        if policy is not None:
            report = self._run_contended(
                runtimes, duration_s, start_s, mode, policy,
                schedule_memo, fault_ctx, tracer,
            )
        else:
            epochs = self._run_independent(runtimes, fault_ctx, tracer)
            reports = [None if rt is None else rt.report() for rt in runtimes]
            cache_hits = speculated = 0
            if engine_run:
                engine = ArrayServingEngine(self.evaluator)
                columns, engine_epochs, cache_hits, speculated = engine.run(
                    tenants, duration_s, start_s, fault_ctx, tracer
                )
                epochs = max(epochs, engine_epochs)
                reports = [r if c is None else c for r, c in zip(reports, columns)]
            report = ServingReport(
                tenants=reports,
                start_s=start_s,
                duration_s=duration_s,
                mode=mode,
                epochs=epochs,
                evaluator_kind=type(self.evaluator).__name__,
                cache_hits=cache_hits,
                speculated=speculated,
            )
        if faults is not None:
            report.faults = build_fault_report(fault_ctx, report.tenants)
        if tracer.enabled:
            # O(1): lifecycle events derive lazily on first trace read.
            tracer.defer_report(report)
            emit_fault_timeline(tracer, fault_ctx.trace)
        if metrics is not None:
            record_serving_report(metrics, report)
        return report

    def _run_independent(
        self,
        runtimes: List[Optional[TenantRuntime]],
        fault_ctx: FaultContext,
        tracer: Tracer = NULL_TRACER,
    ) -> int:
        """The contention-free scalar loop; returns its epoch count.

        Each request sees an idle fleet and is evaluated by one scalar
        ``evaluate`` call.  It is the whole reference loop, and in a batched
        run it serves the tenants the array engine cannot (``None`` entries
        are the engine's and are skipped).  Tenants keep their index in
        ``runtimes``, the index the retry jitter is drawn with.

        Each dispatch is resolved through the shared pure retry-chain walk
        (:func:`~repro.runtime.faults.resolve_faulted_request`) with the
        scalar evaluator as its latency oracle and committed once with its
        final outcome; retry attempts are evaluated under the network state
        at their own release instant.  On a churn-free run (the empty
        trace) every request completes on its first attempt, which commits
        the oracle's float untouched.
        """

        def latency_of(plan, t_s: float) -> float:
            return self.evaluator.evaluate(plan, t_seconds=t_s).end_to_end_ms

        epochs = 0
        while True:
            dispatches = [
                (index, runtime, dispatch)
                for index, runtime in enumerate(runtimes)
                if runtime is not None and not runtime.done and (dispatch := runtime.prepare()) is not None
            ]
            if not dispatches:
                break
            epochs += 1
            for index, runtime, dispatch in dispatches:
                resolved = resolve_faulted_request(
                    dispatch.start_s,
                    dispatch.plan,
                    latency_of,
                    fault_ctx.trace,
                    fault_ctx.retry,
                    fault_ctx.degrader,
                    index,
                    runtime.pending_ordinal,
                )
                emit_resolution(tracer, runtime.spec.name, dispatch.start_s, resolved)
                runtime.commit_resolved(resolved)
        return epochs

    def _run_contended(
        self,
        runtimes: List[TenantRuntime],
        duration_s: Optional[float],
        start_s: float,
        mode: str,
        policy: ClusterPolicy,
        schedule_memo: Optional[LRUCache],
        fault_ctx: FaultContext,
        tracer: Tracer = NULL_TRACER,
    ) -> ServingReport:
        """The shared-fleet loops: requests queue on each other's lanes.

        Both modes drive the identical dispatcher order and the identical
        scalar schedule arithmetic; ``batched`` additionally memoizes
        contended schedules on their ``(model, plan, network state, gate,
        lane residuals)`` signature, so equal-signature dispatches are
        grouped into one evaluation.  ``reference`` re-walks every request
        and stays the semantics oracle.  The dispatch order is inherently
        sequential (each selection depends on every earlier completion); the
        array wins come from the vectorised lane residuals inside
        :class:`~repro.runtime.contention.SharedFleetState`.

        Predictive admission (``policy.admission="predictive"``) splits each
        step into predict → decide → commit: the evaluator's prediction *is*
        the schedule that would be committed, so a denied request costs no
        fleet state and an admitted one records exactly its predicted
        response.  Both modes run the identical decision code on identical
        floats (a memo hit replays the fresh walk's floats), preserving
        bit-parity.  On a memo miss the batched loop over a
        :class:`~repro.runtime.batch.BatchPlanEvaluator` first bounds the
        request with the idle fleet: contention only delays a request, so
        one whose response at the cached idle latency already misses its
        deadline is requeued or denied without a contended walk
        (:meth:`~repro.runtime.contention.ContentionAwareEvaluator.predict`).
        The reference loop walks every request, so parity checks every
        decision the bound takes.

        Fleet churn (``fault_ctx``; the empty trace when the run has none)
        makes every step replan → predict → crash-check: every selection
        replans around the instant's dead devices
        (:meth:`~repro.runtime.faults.PlanDegrader.effective_plan`), and a
        predicted schedule crossing a crash of a touched device is committed
        *truncated at the crash* (the partial lane occupancy and the gate
        slot it held until dying are real), then retried after backoff
        through the normal pending queue or abandoned when the budget is
        spent.  Predictions are crash-unaware by design — the admission gate
        models what the controller can know at release time — and every
        churn decision is the same pure function in both modes.
        """
        fleet = SharedFleetState(len(self.evaluator.devices), window_ms=policy.window_ms)
        engine = ContentionAwareEvaluator(
            self.evaluator,
            fleet=fleet,
            max_inflight=policy.max_inflight,
            memoize=(mode == "batched"),
            cache_size=SCHEDULE_MEMO_SIZE,
            memo=schedule_memo,
        )
        # Trace emission context: both modes commit identical outcomes at
        # these very sites, so live lane/dispatch events stay under parity.
        lane_keys = engine.fleet.lane_keys
        device_ids = [d.device_id for d in engine.devices]
        predictive = policy.admission == "predictive"
        dispatcher = FleetDispatcher(policy.discipline, [rt.spec for rt in runtimes])
        pending: Dict[int, object] = {}
        for index, runtime in enumerate(runtimes):
            dispatch = runtime.prepare()
            if dispatch is not None:
                pending[index] = dispatch
        while pending:
            # Completions at/below every pending release can never gate a
            # future request (per-tenant release times are non-decreasing).
            engine.fleet.prune_completions(
                min(d.start_s for d in pending.values()) * 1000.0
            )
            index = dispatcher.select(
                pending, horizon_s=engine.fleet.busy_until_ms() / 1000.0
            )
            dispatch = pending.pop(index)
            release_ms = dispatch.start_s * 1000.0
            # Replan around devices dead at this release (graceful leaves
            # and crashes alike); restored automatically once they rejoin.
            plan = fault_ctx.degrader.effective_plan(
                dispatch.plan, fault_ctx.trace.live_indices(release_ms)
            )
            slo = runtimes[index].spec.slo if predictive else None
            outcome = engine.predict(
                plan,
                release_ms=release_ms,
                t_seconds=dispatch.start_s,
                misses=(
                    None
                    if slo is None
                    else lambda latency_ms: _response_ms(dispatch, latency_ms) > slo.deadline_ms
                ),
            )
            if slo is not None:
                # ``None``: the idle fleet already misses, so no walk ran.
                if outcome is None or _response_ms(dispatch, outcome.latency_ms) > slo.deadline_ms:
                    if policy.on_predicted_miss == "requeue":
                        next_event_ms = engine.fleet.next_free_event_ms(release_ms)
                        new_start_s = (
                            next_event_ms / 1000.0 if next_event_ms is not None else None
                        )
                        if new_start_s is not None and new_start_s > dispatch.start_s:
                            pending[index] = runtimes[index].defer_pending(new_start_s)
                            if tracer.enabled:
                                if outcome is None:  # the instant records the contended prediction
                                    outcome = engine.predict(
                                        plan, release_ms=release_ms, t_seconds=dispatch.start_s
                                    )
                                tracer.instant(
                                    release_ms,
                                    f"tenant:{runtimes[index].spec.name}",
                                    "admission",
                                    "requeue",
                                    new_start_ms=new_start_s * 1000.0,
                                    predicted_response_ms=_response_ms(dispatch, outcome.latency_ms),
                                )
                            continue
                        # No later lane-free event: the fleet is (effectively)
                        # idle and the deadline is unmeetable — deny.
                    runtimes[index].deny_pending()
                    if not runtimes[index].done:
                        dispatch = runtimes[index].prepare()
                        if dispatch is not None:
                            pending[index] = dispatch
                    continue
            crash = fault_ctx.trace.first_crash_touching(
                fault_ctx.degrader.devices(plan), release_ms, release_ms + outcome.latency_ms
            )
            if crash is not None:
                # Failed at detection: the request held lanes and the
                # admission gate until the crash — commit the truncated
                # schedule, then retry through the normal pending queue
                # (re-predicted and re-admitted at its new release) or
                # abandon once the budget is spent.
                runtime = runtimes[index]
                cut = truncated_outcome(outcome, crash.t_ms - release_ms)
                engine.commit(cut, release_ms)
                dispatcher.account(index, cut.latency_ms)
                if tracer.enabled:
                    _emit_contended_commit(
                        tracer, lane_keys, device_ids, runtime.spec.name,
                        release_ms, cut, truncated=True,
                    )
                attempt = runtime.pending_attempt
                delay_ms = fault_ctx.retry.delay_ms(
                    attempt, index, runtime.pending_ordinal
                )
                new_start_ms = crash.t_ms + delay_ms
                timed_out = (
                    fault_ctx.retry.timeout_ms is not None
                    and new_start_ms - runtime.pending_first_start_s * 1000.0
                    > fault_ctx.retry.timeout_ms
                )
                if attempt >= fault_ctx.retry.max_attempts or timed_out:
                    runtime.abandon_pending(crash.t_ms / 1000.0, lost=1)
                    if not runtime.done:
                        dispatch = runtime.prepare()
                        if dispatch is not None:
                            pending[index] = dispatch
                else:
                    pending[index] = runtime.retry_pending(new_start_ms / 1000.0)
                    if tracer.enabled:
                        tracer.instant(
                            crash.t_ms,
                            f"tenant:{runtime.spec.name}",
                            "fault",
                            "retry",
                            attempt=attempt,
                            delay_ms=delay_ms,
                        )
                continue
            engine.commit(outcome, release_ms)
            if tracer.enabled:
                _emit_contended_commit(
                    tracer, lane_keys, device_ids, runtimes[index].spec.name,
                    release_ms, outcome,
                )
            runtimes[index].commit(outcome.latency_ms)
            dispatcher.account(index, outcome.latency_ms)
            if not runtimes[index].done:
                dispatch = runtimes[index].prepare()
                if dispatch is not None:
                    pending[index] = dispatch
        reports = [runtime.report() for runtime in runtimes]
        ends = [t.makespan_s for t in reports if t.num_completed]
        makespan_ms = (max(ends) - start_s) * 1000.0 if ends else 0.0
        fleet_report = engine.fleet.load_report(
            makespan_ms, device_ids=[d.device_id for d in engine.devices]
        )
        return ServingReport(
            tenants=reports,
            start_s=start_s,
            duration_s=duration_s,
            mode=mode,
            epochs=engine.evaluations,
            evaluator_kind=type(self.evaluator).__name__,
            contention=True,
            discipline=policy.discipline,
            max_inflight=policy.max_inflight,
            cache_hits=engine.memo_hits,
            fleet=fleet_report,
            admission=policy.admission,
            on_predicted_miss=(policy.on_predicted_miss if predictive else ""),
        )


# ---------------------------------------------------------------------- #
# parity mode
# ---------------------------------------------------------------------- #


@dataclass
class ParityMismatch(AssertionError):
    """Raised when the batched loop diverges from the reference loop."""

    details: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - only printed on failure
        return "batched serving loop diverged from the reference loop:\n" + "\n".join(
            f"  - {d}" for d in self.details
        )


def _compare_tenant(a: TenantReport, b: TenantReport, errors: List[str]) -> None:
    pairs = [
        ("arrival_s", a.arrival_s, b.arrival_s),
        ("start_s", a.start_s, b.start_s),
        ("completion_s", a.completion_s, b.completion_s),
        ("latency_ms", a.latency_ms, b.latency_ms),
        ("response_ms", a.response_ms, b.response_ms),
        ("deadline_missed", a.deadline_missed, b.deadline_missed),
        ("queue_depth_series", a.queue_depth_series, b.queue_depth_series),
    ]
    for label, left, right in pairs:
        if left.shape != right.shape or not np.array_equal(left, right):
            errors.append(f"tenant {a.name!r}: {label} differs")
    for label, left, right in [
        ("num_arrivals", a.num_arrivals, b.num_arrivals),
        ("num_rejected", a.num_rejected, b.num_rejected),
        ("rejected_times_s", a.rejected_times_s, b.rejected_times_s),
        ("num_denied", a.num_denied, b.num_denied),
        ("denied_times_s", a.denied_times_s, b.denied_times_s),
        ("replan_times_s", a.replan_times_s, b.replan_times_s),
        ("final_method", a.final_method, b.final_method),
        ("busy_until_s", a.busy_until_s, b.busy_until_s),
        ("num_shed", a.num_shed, b.num_shed),
        ("shed_times_s", a.shed_times_s, b.shed_times_s),
        ("num_abandoned", a.num_abandoned, b.num_abandoned),
        ("abandoned_times_s", a.abandoned_times_s, b.abandoned_times_s),
        ("num_lost_attempts", a.num_lost_attempts, b.num_lost_attempts),
        ("num_retried", a.num_retried, b.num_retried),
        ("retry_added_ms", a.retry_added_ms, b.retry_added_ms),
    ]:
        if left != right:
            errors.append(f"tenant {a.name!r}: {label} differs ({left!r} != {right!r})")


def _compare_fleet(
    a: Optional[FleetLoadReport], b: Optional[FleetLoadReport], errors: List[str]
) -> None:
    if a is None and b is None:
        return
    if (a is None) != (b is None):
        errors.append("one report has a fleet breakdown, the other does not")
        return
    if a.device_ids != b.device_ids:
        errors.append(f"fleet device ids differ: {a.device_ids} != {b.device_ids}")
        return
    array_fields = [
        f"{role}_{kind}"
        for role in ("compute", "send", "recv")
        for kind in ("busy_ms", "wait_ms", "jobs")
    ]
    for name in array_fields:
        left, right = getattr(a, name), getattr(b, name)
        if left.shape != right.shape or not np.array_equal(left, right):
            errors.append(f"fleet {name} differs")
    for name in ("makespan_ms", "requests", "contended_requests", "gate_wait_ms"):
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            errors.append(f"fleet {name} differs ({left!r} != {right!r})")
    if (a.series is None) != (b.series is None):
        errors.append("one fleet report has a windowed series, the other does not")
    elif a.series is not None:
        if a.series.window_ms != b.series.window_ms:
            errors.append(
                f"fleet series window_ms differs "
                f"({a.series.window_ms!r} != {b.series.window_ms!r})"
            )
        series_fields = [
            f"{role}_{kind}_ms"
            for role in ("compute", "send", "recv")
            for kind in ("busy", "wait")
        ] + ["inflight_ms", "released"]
        for name in series_fields:
            left, right = getattr(a.series, name), getattr(b.series, name)
            if left.shape != right.shape or not np.array_equal(left, right):
                errors.append(f"fleet series {name} differs")


def assert_reports_equal(batched: ServingReport, reference: ServingReport) -> None:
    """Bit-exact comparison of two serving reports (raises :class:`ParityMismatch`)."""
    errors: List[str] = []
    names_a = [t.name for t in batched.tenants]
    names_b = [t.name for t in reference.tenants]
    if names_a != names_b:
        raise ParityMismatch([f"tenant sets differ: {names_a} != {names_b}"])
    for label in ("contention", "discipline", "max_inflight", "admission", "on_predicted_miss"):
        if getattr(batched, label) != getattr(reference, label):
            errors.append(
                f"{label} differs ({getattr(batched, label)!r} != "
                f"{getattr(reference, label)!r})"
            )
    if batched.faults != reference.faults:
        errors.append(
            f"fault reports differ ({batched.faults!r} != {reference.faults!r})"
        )
    for a, b in zip(batched.tenants, reference.tenants):
        _compare_tenant(a, b, errors)
    _compare_fleet(batched.fleet, reference.fleet, errors)
    if errors:
        raise ParityMismatch(errors)


def assert_traces_equal(batched: Tracer, reference: Tracer) -> None:
    """Byte-exact comparison of two trace streams (raises :class:`ParityMismatch`).

    Compares the canonical line serialisations (:meth:`Tracer.lines`):
    emission order is already factored out by the canonical sort, so a
    mismatch means a genuinely different event or a float that differs in
    at least one bit.
    """
    a = batched.lines()
    b = reference.lines()
    if a == b:
        return
    errors: List[str] = []
    if len(a) != len(b):
        errors.append(f"trace sizes differ: {len(a)} events != {len(b)} events")
    for i, (left, right) in enumerate(zip(a, b)):
        if left != right:
            errors.append(f"trace event {i} differs:\n  batched:   {left}\n  reference: {right}")
            if len(errors) >= 6:
                errors.append("... (further diffs suppressed)")
                break
    if not errors:  # pragma: no cover - length check above catches this
        errors.append("trace streams differ")
    raise ParityMismatch(errors)


def run_with_parity(
    batched_evaluator: PlanEvaluator,
    reference_evaluator: PlanEvaluator,
    tenants: Sequence[TenantSpec],
    duration_s: Optional[float] = None,
    start_s: float = 0.0,
    policy: Optional[ClusterPolicy] = None,
    faults: Union[str, ChurnSpec, FaultTrace, None] = None,
    retry: Optional[RetryPolicy] = None,
    degradation: Optional[DegradationPolicy] = None,
    compare_analysis: bool = False,
    tracer: Optional[Tracer] = None,
) -> ServingReport:
    """Run the batched and the reference loops and assert bit-identity.

    Stateful adaptation hooks must be supplied as ``hook_factory`` (a fresh
    controller per run) — a bare ``adaptation_hook`` would carry first-run
    state into the second run and make the comparison meaningless, so it is
    rejected here.  ``policy`` runs both loops in shared-fleet contention
    mode (the contended-schedule memo against the per-request reference
    walk); without one the batched side is the array engine of
    :mod:`repro.serving.engine`, so this is its bit-exact correctness
    contract against the scalar reference loop.
    ``faults``/``retry``/``degradation`` drive both loops over the same
    churning fleet — the churn parity contract: identical crash detections,
    retries, abandonments, shed arrivals and ``FaultReport``.  Returns the
    batched report.

    The contract extends to observability: both runs collect a full
    deterministic trace and the two streams are asserted byte-identical
    (:func:`assert_traces_equal`).  Pass ``tracer`` to keep the batched
    side's trace (e.g. for ``--trace-json`` in parity mode); it must be
    empty.

    ``compare_analysis`` extends it once more, to the *interpretation*
    layer: both traces are run through the critical-path analyzer
    (:func:`repro.obs.analysis.analyze_serving`) and the SLO burn-rate
    monitor (:class:`repro.obs.slo.SLOMonitor`), every request's latency
    tiling is asserted bit-exact against its committed latency, and the
    attribution output and alert timelines are asserted byte-identical
    across the two runs.
    """
    for spec in tenants:
        if spec.adaptation_hook is not None:
            raise ValueError(
                f"tenant {spec.name!r}: parity runs execute the workload twice; "
                "supply the hook as hook_factory so each run gets a fresh controller"
            )
    reference_tracer = Tracer()
    batched_tracer = Tracer() if tracer is None else tracer
    if batched_tracer.events:
        raise ValueError("run_with_parity needs an empty tracer")
    reference = ServingSimulator(reference_evaluator).run(
        tenants,
        duration_s=duration_s,
        start_s=start_s,
        mode="reference",
        policy=policy,
        faults=faults,
        retry=retry,
        degradation=degradation,
        tracer=reference_tracer,
    )
    batched = ServingSimulator(batched_evaluator).run(
        tenants,
        duration_s=duration_s,
        start_s=start_s,
        mode="batched",
        policy=policy,
        faults=faults,
        retry=retry,
        degradation=degradation,
        tracer=batched_tracer,
    )
    assert_reports_equal(batched, reference)
    assert_traces_equal(batched_tracer, reference_tracer)
    if compare_analysis:
        # Late imports keep repro.obs optional on the plain serving path.
        from repro.obs.analysis import analyze_serving
        from repro.obs.slo import SLOMonitor

        batched_analysis = analyze_serving(batched, batched_tracer)
        reference_analysis = analyze_serving(reference, reference_tracer)
        batched_analysis.check_exact()
        reference_analysis.check_exact()
        left, right = batched_analysis.lines(), reference_analysis.lines()
        if left != right:
            diffs = [
                f"attribution line {i} differs:\n  batched:   {a}\n  reference: {b}"
                for i, (a, b) in enumerate(zip(left, right))
                if a != b
            ][:6]
            raise ParityMismatch(
                [f"attribution differs ({len(left)} vs {len(right)} lines)"] + diffs
            )
        monitor = SLOMonitor()
        alerts_left = monitor.evaluate(batched).lines()
        alerts_right = monitor.evaluate(reference).lines()
        if alerts_left != alerts_right:
            raise ParityMismatch(
                ["alert timelines differ"]
                + [
                    f"  batched:   {a}\n  reference: {b}"
                    for a, b in zip(alerts_left, alerts_right)
                    if a != b
                ][:6]
            )
    return batched


__all__ = [
    "ServingSimulator",
    "ServingReport",
    "ParityMismatch",
    "assert_reports_equal",
    "assert_traces_equal",
    "run_with_parity",
    "MODES",
]
