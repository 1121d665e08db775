"""Array-native serving engine: a vectorised tenant time-wheel.

The object event loops of :class:`~repro.serving.simulator.ServingSimulator`
batch *evaluations* but still run the admit/queue/deadline bookkeeping as
per-request Python over :class:`~repro.serving.tenants.TenantRuntime`
objects — at thousands of tenants or millions of arrivals the orchestration
itself becomes the wall (the same wall OSDS hit before the
``BatchVolumeScheduler`` extract-and-vectorise move).  This module rewrites
the tenant chain as **structured NumPy column arrays** — per-tenant
``(requests,)`` columns for arrival, start, completion, latency, response,
deadline slack — driven by an epoch time-wheel that advances every tenant
per epoch and commits completions in the canonical order the scalar chain
produces.

Three ideas make it exact *and* fast:

* **Column commits.**  A tenant without an adaptation hook serves one fixed
  plan, so its whole chain is a recurrence over the slot pool:
  ``start[i] = max(arrival[i], earliest_free_slot)``,
  ``completion[i] = start[i] + latency/1000``.  The single sequential
  dependency (the max-plus scan through the slot heap) runs as a tight
  fused loop over preallocated columns — every float op in the same order
  as :meth:`TenantRuntime.commit`, so results are bit-identical — while all
  remaining bookkeeping (responses, deadline flags, queue-depth series,
  admission counts, rejection drains) is reconstructed afterwards in whole
  array passes.
* **Epoch speculation.**  The latency of a request depends only on the
  ``(plan, network-state signature)`` pair at its start.  Once one request
  of a window is evaluated, the engine *speculates* that the signature holds
  for the next ``window`` requests, commits them in one scan, then verifies
  every speculated start against one vectorised signature matrix
  (:func:`~repro.runtime.batch.network_state_signatures`) and discards the
  mis-speculated tail — exactly like the OSDS round tails.  On a provably
  static network (:attr:`NetworkModel.is_static`) verification is skipped
  and the whole remaining timeline commits in a single scan.
* **Slot pools.**  Within-tenant concurrency
  (:attr:`~repro.serving.tenants.TenantSpec.slots`) is a lag-``slots``
  recurrence over the same columns: the scan pops the earliest-free slot
  from a small heap, so completions may overlap while the committed records
  stay in request order (the reordering-safe commit).

Tenants the columns cannot express exactly — adaptation hooks (the plan may
change mid-stream) and open-loop queue-capacity admission (a per-event
decision against the live queue depth) — fall back to their scalar
:class:`TenantRuntime` chain *inside* the engine's epoch loop, sharing its
signature groups and evaluation batches, so mixed workloads stay correct
and only the tenants that need the slow path pay for it.

Fleet churn (:mod:`repro.runtime.faults`) rides the same machinery: the
fault-aware loop bounds every speculation window at the next membership
event — a request commits speculatively only when its whole service span
fits strictly inside the current liveness segment — and a head request
crossing that barrier is rolled back and resolved through the shared scalar
retry-chain walk (:func:`~repro.runtime.faults.resolve_faulted_request`),
so mid-inference crashes, retries and abandonments land bit-identically to
the reference loop's verdicts.

Shared-fleet contention (a :class:`~repro.serving.dispatch.ClusterPolicy`)
keeps its canonical sequential dispatch order by construction — the
simulator routes contended array runs through the contended loop over the
vectorised :class:`~repro.runtime.contention.SharedFleetState` residuals.

``run_with_parity(..., engine="array")`` asserts bit-identity of all of
this against the naive per-request reference loop.  Where this engine sits
relative to the simulator's object loops, the contention layer and the
control plane — and the parity contract binding every fast path to its
reference loop — is drawn in ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.profile import NULL_PROFILER
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.batch import (
    network_state_signature,
    network_state_signatures,
    plan_signature,
)
from repro.runtime.faults import (
    FaultContext,
    emit_resolution,
    resolve_faulted_request,
)
from repro.serving.tenants import TenantReport, TenantRuntime, TenantSpec
from repro.utils.cache import LRUCache

#: Smallest adaptive speculation window on non-static networks.  The window
#: doubles after every fully-verified commit and halves on a mis-speculated
#: tail, so steady piecewise-constant traces quickly earn long windows while
#: continuously-varying traces degrade to near-per-request evaluation —
#: never to wrong answers.
MIN_SPECULATION = 4

#: Default cap of the adaptive speculation window.
DEFAULT_SPECULATION = 64


def vectorizable(spec: TenantSpec) -> bool:
    """Whether a tenant's chain can run on the engine's column fast path.

    Hooks may swap the plan mid-stream and open-loop admission control
    makes per-arrival decisions against the live queue depth; both run on
    the scalar fallback chain inside the engine instead.
    """
    if spec.adaptation_hook is not None or spec.hook_factory is not None:
        return False
    return spec.closed_loop or spec.queue_capacity is None


class _VectorTenant:
    """One tenant's request chain as preallocated NumPy columns.

    The scan methods replay :meth:`TenantRuntime.prepare`/``commit`` float
    for float (hoisting only per-request recomputations of constants, which
    is rounding-neutral); everything else about the report is reconstructed
    in vectorised array passes by :meth:`report`.
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
        self.shed_times: List[float] = []
        if spec.closed_loop:
            self.arrivals = np.empty(0)
            self.capacity = int(spec.max_requests)
        else:
            self.arrivals = spec.traffic.arrival_times(duration_s, start_s)
            if shed_intervals:
                # Same up-front filter as TenantRuntime: shedding is decided
                # at arrival time from (trace, weights) alone, so shed
                # arrivals never enter the columns.
                keep = np.ones(self.arrivals.size, dtype=bool)
                for lo, hi in shed_intervals:
                    keep &= ~((self.arrivals >= lo) & (self.arrivals < hi))
                self.shed_times = [float(t) for t in self.arrivals[~keep]]
                self.arrivals = self.arrivals[keep]
            n = int(self.arrivals.size)
            self.capacity = n if spec.max_requests is None else min(n, spec.max_requests)
        # Python-float view for the tight scan (same bits, faster item access).
        self._a: List[float] = self.arrivals.tolist()
        k = self.capacity
        self.starts = np.empty(k)
        self.comps = np.empty(k)
        self.lats = np.empty(k)
        self.committed = 0
        self.truncated = False  # closed-loop max_duration_s stop
        # Slot pool min-heap (equal entries form a valid heap without heapify).
        self.slots: List[float] = [self.start_s] * spec.slots
        self.window = MIN_SPECULATION
        #: Per-tenant latency memo: network-state signature -> latency_ms
        #: (the plan is fixed on this path, so the signature is the key).
        #: Under churn the key widens to ``(id(effective_plan), signature)``
        #: — failover plans are cached per live set by the PlanDegrader, so
        #: the identity is stable.
        self.memo = LRUCache(256)
        # Fault-resolution outcomes (churn runs only; empty otherwise).
        self.abandoned_rows: List[int] = []
        self.abandoned_times: List[float] = []
        self.num_lost_attempts = 0
        self.num_retried = 0
        self.retry_added_ms = 0.0
        #: Mis-speculated windows rolled back (profiling only; the count
        #: never feeds the schedule).
        self.rollbacks = 0

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.committed >= self.capacity or self.truncated

    def peek_start(self) -> float:
        """Start time of the next request (exact — depends only on commits)."""
        if self.spec.closed_loop:
            return self.slots[0]
        arrival = self._a[self.committed]
        free = self.slots[0]
        return arrival if arrival > free else free

    # ------------------------------------------------------------------ #
    def _scan(self, count: int, latency_ms: float) -> int:
        """Commit up to ``count`` requests at a fixed latency.

        The one sequential dependency of the whole engine: each iteration
        performs exactly the float ops of the scalar chain —
        ``start = max(arrival, earliest_free)``; ``completion = start +
        latency_ms/1000`` ; slot frees at ``start + (latency_ms +
        gap_ms)/1000`` (closed loop) or at the completion (open loop).
        Returns the number committed (closed loops may stop early at
        ``max_duration_s``).
        """
        spec = self.spec
        lat_s = latency_ms / 1000.0
        i = j = self.committed
        end = i + count
        starts, comps = self.starts, self.comps
        slots = self.slots
        single = len(slots) == 1
        if spec.closed_loop:
            free_s = (latency_ms + spec.gap_ms) / 1000.0
            max_d = spec.max_duration_s
            base = self.start_s
            while j < end:
                if single:
                    s = slots[0]
                    slots[0] = s + free_s
                else:
                    s = slots[0]
                    heapq.heapreplace(slots, s + free_s)
                starts[j] = s
                comps[j] = s + lat_s
                j += 1
                if max_d is not None and slots[0] - base >= max_d:
                    self.truncated = True
                    break
        else:
            a = self._a
            if single:
                free = slots[0]
                while j < end:
                    arrival = a[j]
                    s = arrival if arrival > free else free
                    free = s + lat_s
                    starts[j] = s
                    comps[j] = free
                    j += 1
                slots[0] = free
            else:
                while j < end:
                    arrival = a[j]
                    mn = slots[0]
                    s = arrival if arrival > mn else mn
                    f = s + lat_s
                    heapq.heapreplace(slots, f)
                    starts[j] = s
                    comps[j] = f
                    j += 1
        self.committed = j
        return j - i

    def advance(
        self,
        latency_ms: float,
        signature: Tuple[float, ...],
        static: bool,
        network,
        max_window: int,
    ) -> int:
        """Commit one speculation window; returns how many requests landed.

        ``latency_ms`` is the evaluated latency of the *next* request (whose
        signature is ``signature`` by construction).  On a static network
        the whole remaining timeline commits; otherwise the window's starts
        are verified against the assumed signature with one vectorised
        matrix comparison and the mis-speculated tail is rolled back and
        discarded.
        """
        remaining = self.capacity - self.committed
        i0 = self.committed
        if static:
            count = self._scan(remaining, latency_ms)
            self.lats[i0:i0 + count] = latency_ms
            return count
        window = min(self.window, remaining)
        snapshot = (self.committed, list(self.slots), self.truncated)
        count = self._scan(window, latency_ms)
        rows = network_state_signatures(network, self.starts[i0:i0 + count])
        mismatch = (rows != np.asarray(signature)).any(axis=1)
        ok = int(np.argmax(mismatch)) if bool(mismatch.any()) else count
        if ok == 0:  # pragma: no cover - peek/scan compute the same start
            raise RuntimeError(
                f"tenant {self.spec.name!r}: speculation verifier rejected the "
                "evaluated head request — signature sampling drifted"
            )
        if ok < count:
            # Discard the mis-speculated tail: restore the slot pool and
            # replay only the verified prefix (identical floats by purity).
            self.committed, self.slots, self.truncated = snapshot
            self._scan(ok, latency_ms)
            self.window = max(MIN_SPECULATION, self.window // 2)
            self.rollbacks += 1
        else:
            self.window = min(max_window, self.window * 2)
        count = self.committed - i0
        self.lats[i0:i0 + count] = latency_ms
        return count

    # ------------------------------------------------------------------ #
    def advance_faulted(
        self,
        latency_ms: float,
        signature: Tuple[float, ...],
        static: bool,
        network,
        max_window: int,
        trace,
    ) -> int:
        """:meth:`advance` on a churning fleet; returns how many landed.

        The speculation window gains a second verifier: a request may only
        commit speculatively when it *starts* strictly before the next
        membership event and *completes* at or before it (a crash exactly at
        the completion tick does not kill — the open-interval rule of
        :meth:`FaultTrace.first_crash_touching`).  Inside such a window the
        live set, the effective plan and the crash verdict ("none") are
        constant, so the scalar retry-chain walk would resolve every request
        to exactly this latency — the window commit is the resolver, batched.
        Returns 0 when the head request itself crosses the barrier; the
        engine then resolves it through :func:`resolve_faulted_request` and
        commits it via :meth:`commit_resolved_head`.
        """
        remaining = self.capacity - self.committed
        i0 = self.committed
        t_next = self.peek_start()
        barrier_ms = trace.next_event_after(t_next * 1000.0)
        window = remaining if static else min(self.window, remaining)
        snapshot = (self.committed, list(self.slots), self.truncated)
        count = self._scan(window, latency_ms)
        starts = self.starts[i0:i0 + count]
        if static:
            ok = count
        else:
            rows = network_state_signatures(network, starts)
            mismatch = (rows != np.asarray(signature)).any(axis=1)
            ok = int(np.argmax(mismatch)) if bool(mismatch.any()) else count
            if ok == 0:  # pragma: no cover - peek/scan compute the same start
                raise RuntimeError(
                    f"tenant {self.spec.name!r}: speculation verifier rejected the "
                    "evaluated head request — signature sampling drifted"
                )
        if barrier_ms is not None:
            # Same float ops as the resolver: start_ms = start_s * 1000,
            # end_ms = start_ms + latency — so the boundary comparisons
            # agree bit for bit with the scalar crash test.
            starts_ms = starts * 1000.0
            fault_ok = int(np.searchsorted(starts_ms, barrier_ms, side="left"))
            fault_ok = min(
                fault_ok,
                int(np.searchsorted(starts_ms + latency_ms, barrier_ms, side="right")),
            )
            ok = min(ok, fault_ok)
        if ok < count:
            self.committed, self.slots, self.truncated = snapshot
            if ok:
                self._scan(ok, latency_ms)
            self.window = max(MIN_SPECULATION, self.window // 2)
            self.rollbacks += 1
        elif not static:
            self.window = min(max_window, self.window * 2)
        count = self.committed - i0
        self.lats[i0:i0 + count] = latency_ms
        return count

    def commit_resolved_head(self, resolved) -> None:
        """Commit the head request's scalar fault resolution into the columns.

        Mirrors :meth:`TenantRuntime.commit_resolved` float for float: a
        completed retry chain commits like a normal request at its total
        latency (first release to final completion), while an abandoned one
        holds its service slot until the crash instant and leaves no
        completed record — the row is flagged and filtered from the
        completion columns at report time.
        """
        self.num_lost_attempts += resolved.lost_attempts
        j = self.committed
        if resolved.status == "completed":
            self._scan(1, resolved.latency_ms)
            self.lats[j] = resolved.latency_ms
            if resolved.retried:
                self.num_retried += 1
                self.retry_added_ms += resolved.retry_added_ms
            return
        spec = self.spec
        abandon_s = resolved.abandon_s
        if spec.closed_loop:
            s = self.slots[0]
            heapq.heapreplace(self.slots, abandon_s + spec.gap_ms / 1000.0)
            if (
                spec.max_duration_s is not None
                and self.slots[0] - self.start_s >= spec.max_duration_s
            ):
                self.truncated = True
        else:
            arrival = self._a[j]
            free = self.slots[0]
            s = arrival if arrival > free else free
            heapq.heapreplace(self.slots, abandon_s)
        self.starts[j] = s
        self.comps[j] = abandon_s
        self.lats[j] = 0.0
        self.committed = j + 1
        self.abandoned_rows.append(j)
        self.abandoned_times.append(float(abandon_s))

    # ------------------------------------------------------------------ #
    def _depth_series(self, k: int, admitted: int) -> np.ndarray:
        """Reconstruct the queue-depth event series in one array pass.

        The scalar chain logs ``(time, depth)`` on every admission and every
        dispatch, processing arrivals before dispatches at equal times.  The
        interleaved sequence is therefore a stable time-sort of both event
        streams with arrivals ranked first on ties, and the depth after each
        event is the running sum of +1 (admission) / -1 (dispatch).
        """
        times = np.concatenate([self.arrivals[:admitted], self.starts[:k]])
        kind = np.concatenate([np.zeros(admitted), np.ones(k)])
        delta = np.concatenate([np.ones(admitted), -np.ones(k)])
        order = np.lexsort((kind, times))  # stable: index order within ties
        events = np.column_stack([times[order], np.cumsum(delta[order])])
        queued = admitted - k
        if queued > 0:
            # Requests still waiting when the cap closed service drain to
            # zero at the instant the next slot would have freed.
            drain = np.column_stack(
                [np.full(queued, self.slots[0]), np.arange(queued - 1, -1, -1.0)]
            )
            events = np.concatenate([events, drain])
        return events if events.size else np.empty((0, 2))

    def report(self) -> TenantReport:
        spec = self.spec
        k = self.committed
        starts_all = self.starts[:k]
        # Abandoned rows consumed an arrival, a slot and a dispatch — they
        # stay in the depth/admission accounting below — but leave no
        # completed record, exactly like TenantRuntime.abandon_pending.
        if self.abandoned_rows:
            mask = np.ones(k, dtype=bool)
            mask[self.abandoned_rows] = False
            starts = starts_all[mask]
            comps = self.comps[:k][mask]
            lats = self.lats[:k][mask]
        else:
            mask = None
            starts = starts_all
            comps = self.comps[:k]
            lats = self.lats[:k]
        if spec.closed_loop:
            arrivals = starts  # closed-loop requests are issued at dispatch
            num_arrivals = k
            rejected: List[float] = []
            depth = np.empty((0, 2))
            admitted = 0
        else:
            n = int(self.arrivals.size)
            arrivals = self.arrivals[:k] if mask is None else self.arrivals[:k][mask]
            num_arrivals = n + len(self.shed_times)
            # Admitted during serving: arrivals at/before the last dispatch
            # (ties admit first).  Everything past the request cap was
            # rejected — queued requests in the cap drain, the unexamined
            # tail of the stream at its own arrival times.
            admitted = (
                int(np.searchsorted(self.arrivals, starts_all[k - 1], side="right"))
                if k
                else 0
            )
            rejected = self.arrivals[k:].tolist()
            depth = self._depth_series(k, admitted)
        response = (comps - arrivals) * 1000.0
        if spec.slo is not None:
            missed = response > spec.slo.deadline_ms
        else:
            missed = np.zeros(starts.size, dtype=bool)
        return TenantReport(
            name=spec.name,
            slo=spec.slo,
            arrival_s=arrivals,
            start_s=starts,
            completion_s=comps,
            latency_ms=lats,
            response_ms=response,
            deadline_missed=missed,
            num_arrivals=num_arrivals,
            num_rejected=len(rejected),
            rejected_times_s=rejected,
            replan_times_s=[],
            queue_depth_series=depth,
            final_method=spec.plan.method,
            busy_until_s=max(self.slots),
            num_shed=len(self.shed_times),
            shed_times_s=list(self.shed_times),
            num_abandoned=len(self.abandoned_rows),
            abandoned_times_s=list(self.abandoned_times),
            num_lost_attempts=self.num_lost_attempts,
            num_retried=self.num_retried,
            retry_added_ms=self.retry_added_ms,
        )


class ArrayServingEngine:
    """Drives tenants through the vectorised time-wheel.

    Constructed on the same batch-capable evaluator as the simulator
    (:class:`~repro.runtime.batch.BatchPlanEvaluator`).  Use it via
    ``ServingSimulator.run(..., engine="array")`` — the simulator performs
    the argument validation and wraps the outcome in a
    :class:`~repro.serving.simulator.ServingReport`.
    """

    def __init__(self, evaluator, speculation: int = DEFAULT_SPECULATION) -> None:
        if speculation < MIN_SPECULATION:
            raise ValueError(
                f"speculation must be >= {MIN_SPECULATION}, got {speculation}"
            )
        self.evaluator = evaluator
        self.speculation = int(speculation)
        self.profiler = NULL_PROFILER

    def run(
        self,
        tenants: Sequence[TenantSpec],
        duration_s: Optional[float] = None,
        start_s: float = 0.0,
        mode: str = "batched",
        fault_ctx: Optional[FaultContext] = None,
        tracer: Optional[Tracer] = None,
    ):
        """Run the array time-wheel; returns a ``ServingReport``.

        ``mode`` is recorded in the report for symmetry with the object
        loops; the engine itself has a single (batched) execution strategy.
        ``fault_ctx`` (built by the simulator) switches on fleet churn: the
        run moves to the fault-aware epoch loop, whose speculation windows
        are additionally bounded by the fault trace's membership events.
        """
        from repro.serving.simulator import ServingReport  # circular at module load

        tracer = NULL_TRACER if tracer is None else tracer
        if fault_ctx is not None:
            return self._run_faulted(
                tenants, duration_s, start_s, mode, fault_ctx, tracer
            )

        prof = self.profiler
        run_start = perf_counter() if prof.enabled else 0.0
        network = self.evaluator.network
        static = network.is_static
        static_sig = network_state_signature(network, start_s) if static else None

        vectors: List[Optional[_VectorTenant]] = []
        runtimes: List[Optional[TenantRuntime]] = []
        for spec in tenants:
            if vectorizable(spec):
                vectors.append(_VectorTenant(spec, start_s, duration_s))
                runtimes.append(None)
            else:
                vectors.append(None)
                runtimes.append(TenantRuntime(spec, start_s, duration_s))

        epochs = 0
        cache_hits = 0
        speculated = 0
        # Plan signatures memoized by object identity (fallback chains may
        # swap plans via hooks; the dict also pins ids against recycling).
        plan_sigs: Dict[int, Tuple] = {}
        plan_refs: Dict[int, object] = {}

        def sig_of(plan) -> Tuple:
            sig = plan_sigs.get(id(plan))
            if sig is None:
                sig = plan_signature(plan)
                plan_sigs[id(plan)] = sig
                plan_refs[id(plan)] = plan
            return sig

        while True:
            # Phase 1: every active tenant declares its next evaluation need
            # (fallback dispatches whose latency is already cached commit
            # right here — still progress, hence the ``dispatched`` flag).
            groups: Dict[Tuple[float, ...], List[Tuple]] = {}
            ready: List[Tuple[_VectorTenant, Tuple[float, ...], float]] = []
            dispatched = False
            for vector, runtime in zip(vectors, runtimes):
                if vector is not None:
                    if vector.done:
                        continue
                    dispatched = True
                    t_next = vector.peek_start()
                    signature = (
                        static_sig if static else network_state_signature(network, t_next)
                    )
                    latency = vector.memo.get(signature)
                    if latency is None:
                        groups.setdefault(signature, []).append((vector, t_next))
                    else:
                        cache_hits += 1
                        ready.append((vector, signature, latency))
                    continue
                if runtime.done:
                    continue
                dispatch = runtime.prepare()
                if dispatch is None:
                    continue
                dispatched = True
                signature = (
                    static_sig
                    if static
                    else network_state_signature(network, dispatch.start_s)
                )
                key = (id(dispatch.plan.model), sig_of(dispatch.plan), signature)
                cached = runtime.cached_latency(key)
                if cached is not None:
                    cache_hits += 1
                    runtime.commit(cached)
                else:
                    groups.setdefault(signature, []).append((runtime, dispatch, key))
            if not dispatched:
                break
            epochs += 1
            # Phase 2: one vectorised evaluation per distinct network state.
            for signature, members in groups.items():
                plans = []
                for member in members:
                    if isinstance(member[0], _VectorTenant):
                        plans.append(member[0].spec.plan)
                    else:
                        plans.append(member[1].plan)
                t_rep = members[0][1] if isinstance(members[0][0], _VectorTenant) else (
                    members[0][1].start_s
                )
                results = self.evaluator.evaluate_plans(plans, t_seconds=t_rep)
                for member, result in zip(members, results):
                    latency = result.end_to_end_ms
                    if isinstance(member[0], _VectorTenant):
                        vector = member[0]
                        vector.memo.put(signature, latency)
                        ready.append((vector, signature, latency))
                    else:
                        runtime, dispatch, key = member
                        runtime.cache_latency(key, dispatch.plan.model, latency)
                        runtime.commit(latency)
            # Phase 3: column tenants commit their speculation windows.
            for vector, signature, latency in ready:
                landed = vector.advance(
                    latency, signature, static, network, self.speculation
                )
                speculated += landed - 1

        reports = [
            vector.report() if vector is not None else runtime.report()
            for vector, runtime in zip(vectors, runtimes)
        ]
        if prof.enabled:
            prof.add("engine.run", perf_counter() - run_start)
            prof.count("engine.epochs", epochs)
            prof.count("engine.cache_hits", cache_hits)
            prof.count("engine.speculated", speculated)
            prof.count(
                "engine.rollbacks",
                sum(v.rollbacks for v in vectors if v is not None),
            )
        return ServingReport(
            tenants=reports,
            start_s=start_s,
            duration_s=duration_s,
            mode=mode,
            epochs=epochs,
            evaluator_kind=type(self.evaluator).__name__,
            cache_hits=cache_hits,
            engine="array",
            speculated=speculated,
        )

    def _run_faulted(
        self,
        tenants: Sequence[TenantSpec],
        duration_s: Optional[float],
        start_s: float,
        mode: str,
        ctx: FaultContext,
        tracer: Tracer = NULL_TRACER,
    ):
        """The epoch time-wheel on a churning fleet.

        Three additions keep the column fast path under the churn parity
        contract:

        * every epoch resolves each tenant's *effective* plan from the live
          set at its next start — the same :class:`PlanDegrader` decision
          (and the same cached plan object) the scalar loops use;
        * speculation windows stop at the next membership event
          (:meth:`_VectorTenant.advance_faulted`), so no speculated commit
          can ever interact with churn;
        * a head request crossing the barrier is rolled back and resolved
          through the shared scalar retry-chain walk
          (:func:`~repro.runtime.faults.resolve_faulted_request`) with this
          engine's memoized latency oracle, then committed row by row —
          including abandoned rows, which hold their slot until the crash.

        Non-vectorizable tenants run their scalar :class:`TenantRuntime`
        chain through the very same resolver per dispatch, exactly as the
        simulator's batched faulted loop does.
        """
        from repro.serving.simulator import ServingReport  # circular at module load

        prof = self.profiler
        run_start = perf_counter() if prof.enabled else 0.0
        network = self.evaluator.network
        static = network.is_static
        static_sig = network_state_signature(network, start_s) if static else None
        trace, retry, degrader = ctx.trace, ctx.retry, ctx.degrader

        vectors: List[Optional[_VectorTenant]] = []
        runtimes: List[Optional[TenantRuntime]] = []
        for i, spec in enumerate(tenants):
            shed = list(ctx.shed_intervals[i]) if ctx.shed_intervals[i] else None
            if vectorizable(spec):
                vectors.append(
                    _VectorTenant(spec, start_s, duration_s, shed_intervals=shed)
                )
                runtimes.append(None)
            else:
                vectors.append(None)
                runtimes.append(
                    TenantRuntime(spec, start_s, duration_s, shed_intervals=shed)
                )

        epochs = 0
        cache_hits = 0
        speculated = 0
        plan_sigs: Dict[int, Tuple] = {}
        plan_refs: Dict[int, object] = {}

        def sig_of(plan) -> Tuple:
            sig = plan_sigs.get(id(plan))
            if sig is None:
                sig = plan_signature(plan)
                plan_sigs[id(plan)] = sig
                plan_refs[id(plan)] = plan
            return sig

        def sig_at(t_s: float) -> Tuple[float, ...]:
            return static_sig if static else network_state_signature(network, t_s)

        def vector_oracle(vector: _VectorTenant):
            # The retry-chain walk's latency oracle for a column tenant:
            # the per-tenant memo keyed (effective plan, network state),
            # falling through to a singleton batch evaluation — the same
            # floats the simulator's batched faulted loop feeds the walk.
            def latency_of(plan, t_s: float) -> float:
                nonlocal cache_hits
                key = (id(plan), sig_at(t_s))
                hit = vector.memo.get(key)
                if hit is not None:
                    cache_hits += 1
                    return hit
                latency = self.evaluator.evaluate_plans([plan], t_seconds=t_s)[0].end_to_end_ms
                vector.memo.put(key, latency)
                return latency

            return latency_of

        def runtime_oracle(runtime: TenantRuntime):
            def latency_of(plan, t_s: float) -> float:
                nonlocal cache_hits
                key = (
                    id(plan.model),
                    sig_of(plan),
                    network_state_signature(network, t_s),
                )
                cached = runtime.cached_latency(key)
                if cached is not None:
                    cache_hits += 1
                    return cached
                latency = self.evaluator.evaluate_plans([plan], t_seconds=t_s)[0].end_to_end_ms
                runtime.cache_latency(key, plan.model, latency)
                return latency

            return latency_of

        while True:
            groups: Dict[Tuple[float, ...], List[Tuple]] = {}
            ready: List[Tuple] = []
            dispatched = False
            for index, (vector, runtime) in enumerate(zip(vectors, runtimes)):
                if vector is not None:
                    if vector.done:
                        continue
                    dispatched = True
                    t_next = vector.peek_start()
                    eff = degrader.effective_plan(
                        vector.spec.plan, trace.live_indices(t_next * 1000.0)
                    )
                    signature = sig_at(t_next)
                    latency = vector.memo.get((id(eff), signature))
                    if latency is None:
                        groups.setdefault(signature, []).append(
                            (vector, t_next, eff, index)
                        )
                    else:
                        cache_hits += 1
                        ready.append((vector, signature, latency, index))
                    continue
                if runtime.done:
                    continue
                dispatch = runtime.prepare()
                if dispatch is None:
                    continue
                dispatched = True
                resolved = resolve_faulted_request(
                    dispatch.start_s,
                    dispatch.plan,
                    runtime_oracle(runtime),
                    trace,
                    retry,
                    degrader,
                    index,
                    runtime.pending_ordinal,
                )
                emit_resolution(tracer, runtime.spec.name, dispatch.start_s, resolved)
                runtime.commit_resolved(resolved)
            if not dispatched:
                break
            epochs += 1
            for signature, members in groups.items():
                results = self.evaluator.evaluate_plans(
                    [eff for _, _, eff, _ in members], t_seconds=members[0][1]
                )
                for (vector, t_next, eff, index), result in zip(members, results):
                    latency = result.end_to_end_ms
                    vector.memo.put((id(eff), signature), latency)
                    ready.append((vector, signature, latency, index))
            for vector, signature, latency, index in ready:
                landed = vector.advance_faulted(
                    latency, signature, static, network, self.speculation, trace
                )
                if landed:
                    speculated += landed - 1
                    continue
                # The head request crosses the next membership event: walk
                # its retry chain scalar and commit the single resolution.
                release_s = vector.peek_start()
                resolved = resolve_faulted_request(
                    release_s,
                    vector.spec.plan,
                    vector_oracle(vector),
                    trace,
                    retry,
                    degrader,
                    index,
                    vector.committed,
                )
                emit_resolution(tracer, vector.spec.name, release_s, resolved)
                vector.commit_resolved_head(resolved)

        reports = [
            vector.report() if vector is not None else runtime.report()
            for vector, runtime in zip(vectors, runtimes)
        ]
        if prof.enabled:
            prof.add("engine.run_faulted", perf_counter() - run_start)
            prof.count("engine.epochs", epochs)
            prof.count("engine.cache_hits", cache_hits)
            prof.count("engine.speculated", speculated)
            prof.count(
                "engine.rollbacks",
                sum(v.rollbacks for v in vectors if v is not None),
            )
        return ServingReport(
            tenants=reports,
            start_s=start_s,
            duration_s=duration_s,
            mode=mode,
            epochs=epochs,
            evaluator_kind=type(self.evaluator).__name__,
            cache_hits=cache_hits,
            engine="array",
            speculated=speculated,
        )


__all__ = [
    "ArrayServingEngine",
    "vectorizable",
    "MIN_SPECULATION",
    "DEFAULT_SPECULATION",
]
