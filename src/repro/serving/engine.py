"""Array-native serving engine: the batched loop of independent serving.

:class:`~repro.serving.simulator.ServingSimulator` runs every
contention-free ``mode="batched"`` run here.  Its reference loop walks each
tenant's :class:`~repro.serving.tenants.TenantRuntime` request by request —
at thousands of tenants or millions of arrivals that per-request Python
bookkeeping is the wall (the same wall OSDS hit before the
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
  mis-speculated tail — exactly like the OSDS round tails.  The first
  mismatching row *is* the next head's signature, so the head is evaluated
  at that rate vector without sampling the network again.  On a provably
  static network (:attr:`NetworkModel.is_static`) verification is skipped
  and the whole remaining timeline commits in a single scan.
* **Slot pools.**  Within-tenant concurrency
  (:attr:`~repro.serving.tenants.TenantSpec.slots`) is a lag-``slots``
  recurrence over the same columns: the scan pops the earliest-free slot
  from a small heap, so completions may overlap while the committed records
  stay in request order (the reordering-safe commit).

Tenants the columns cannot express exactly — adaptation hooks (the plan may
change mid-stream) and open-loop queue-capacity admission (a per-event
decision against the live queue depth) — are not served here: the
simulator runs them through its scalar reference loop in the same call, so
mixed workloads stay correct and only the tenants that need the slow path
pay for it.  Both loops keep every tenant at its position in the caller's
list, which the churn shed intervals and retry jitter are indexed by.

Fleet churn (:mod:`repro.runtime.faults`) rides the same machinery: the
fault-aware loop bounds every speculation window at the next membership
event — a request commits speculatively only when its whole service span
fits strictly inside the current liveness segment — and a head request
crossing that barrier is rolled back and resolved through the shared scalar
retry-chain walk (:func:`~repro.runtime.faults.resolve_faulted_request`),
so mid-inference crashes, retries and abandonments land bit-identically to
the reference loop's verdicts.  Each head is evaluated on its own: under
churn the effective plans rarely share a group, and a compiled singleton
walk beats a 2–4 plan array sweep.

Shared-fleet contention (a :class:`~repro.serving.dispatch.ClusterPolicy`)
keeps its canonical sequential dispatch order by construction — the
simulator routes contended runs through its contended loop over the
vectorised :class:`~repro.runtime.contention.SharedFleetState` residuals.

:func:`~repro.serving.simulator.run_with_parity` asserts bit-identity of
all of this against the naive per-request reference loop.  Where this
engine sits relative to the simulator, the contention layer and the control
plane — and the parity contract binding every fast path to its reference
loop — is drawn in ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.profile import NULL_PROFILER
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.batch import network_state_signature, network_state_signatures
from repro.runtime.faults import (
    FaultContext,
    emit_resolution,
    resolve_faulted_request,
)
from repro.runtime.plan import DistributionPlan
from repro.serving.tenants import TenantReport, TenantSpec
from repro.utils.cache import LRUCache

#: Smallest adaptive speculation window on non-static networks.  The window
#: doubles after every fully-verified commit and halves on a mis-speculated
#: tail, so steady piecewise-constant traces quickly earn long windows while
#: continuously-varying traces degrade to near-per-request evaluation —
#: never to wrong answers.
MIN_SPECULATION = 4

#: Cap of the adaptive speculation window.
MAX_SPECULATION = 64

Signature = Tuple[float, ...]


def vectorizable(spec: TenantSpec) -> bool:
    """Whether a tenant's chain can run on the engine's column fast path.

    Hooks may swap the plan mid-stream and open-loop admission control
    makes per-arrival decisions against the live queue depth; both run on
    the simulator's scalar loop instead.
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
        #: Network-state signature of the next head when the last window's
        #: verifier already sampled it (its first mismatching row), else None.
        self.next_signature: Optional[Signature] = None
        #: Per-tenant latency memo keyed ``(id(plan), signature)``: the plan
        #: is the tenant's own, or under churn a failover plan, which the
        #: PlanDegrader caches per live set — so the identity is stable.
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
        signature: Signature,
        static: bool,
        network,
        trace=None,
    ) -> int:
        """Commit one speculation window; returns how many requests landed.

        ``latency_ms`` is the evaluated latency of the *next* request (whose
        signature is ``signature`` by construction).  On a static network
        the whole remaining timeline commits; otherwise the window's starts
        are verified against the assumed signature with one vectorised
        matrix comparison and the mis-speculated tail is rolled back and
        discarded.  The first rolled-back row is the next head's signature,
        kept in :attr:`next_signature`.

        On a churning fleet (``trace``) a request may only commit
        speculatively when it *starts* strictly before the next membership
        event and *completes* at or before it (a crash exactly at the
        completion tick does not kill — the open-interval rule of
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
        barrier_ms = None if trace is None else trace.next_event_after(self.peek_start() * 1000.0)
        window = remaining if static else min(self.window, remaining)
        snapshot = (self.committed, list(self.slots), self.truncated)
        count = self._scan(window, latency_ms)
        starts = self.starts[i0:i0 + count]
        ok = count
        if not static:
            rows = network_state_signatures(network, starts)
            mismatch = (rows != np.asarray(signature)).any(axis=1)
            if mismatch.any():
                ok = int(np.argmax(mismatch))
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
        self.next_signature = None
        if ok < count:
            # Discard the mis-speculated tail: restore the slot pool and
            # replay only the verified prefix (identical floats by purity),
            # which puts the next head at the start the scan gave row ``ok``.
            self.committed, self.slots, self.truncated = snapshot
            self._scan(ok, latency_ms)
            self.window = max(MIN_SPECULATION, self.window // 2)
            self.rollbacks += 1
            if not static:
                self.next_signature = tuple(rows[ok].tolist())
        elif not static:
            self.window = min(MAX_SPECULATION, self.window * 2)
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
        self.next_signature = None
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
    """Drives the column tenants through the vectorised time-wheel.

    Constructed on the same batch-capable evaluator as the simulator
    (:class:`~repro.runtime.batch.BatchPlanEvaluator`).  Use it via
    ``ServingSimulator.run`` — every batched run without a cluster policy
    lands here, after the simulator has validated the arguments.
    """

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.profiler = NULL_PROFILER

    def run(
        self,
        tenants: Sequence[TenantSpec],
        duration_s: Optional[float] = None,
        start_s: float = 0.0,
        fault_ctx: Optional[FaultContext] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> Tuple[List[Optional[TenantReport]], int, int, int]:
        """Serve the :func:`vectorizable` tenants on the array time-wheel.

        Returns ``(reports, epochs, cache_hits, speculated)``; ``reports``
        is aligned with ``tenants`` and holds ``None`` for every tenant the
        simulator's scalar loop serves instead.  ``fault_ctx`` (built by the
        simulator) switches on fleet churn: the run moves to the fault-aware
        epoch loop, whose speculation windows are additionally bounded by
        the fault trace's membership events.
        """
        prof = self.profiler
        run_start = perf_counter() if prof.enabled else 0.0
        network = self.evaluator.network
        static_sig = network_state_signature(network, start_s) if network.is_static else None
        vectors: List[Optional[_VectorTenant]] = [
            (
                _VectorTenant(
                    spec,
                    start_s,
                    duration_s,
                    shed_intervals=None if fault_ctx is None else fault_ctx.shed_intervals[i],
                )
                if vectorizable(spec)
                else None
            )
            for i, spec in enumerate(tenants)
        ]
        if fault_ctx is None:
            epochs, cache_hits, speculated = self._epochs(vectors, static_sig)
        else:
            epochs, cache_hits, speculated = self._epochs_faulted(vectors, static_sig, fault_ctx, tracer)
        reports = [None if v is None else v.report() for v in vectors]
        if prof.enabled:
            section = "engine.run" if fault_ctx is None else "engine.run_faulted"
            prof.add(section, perf_counter() - run_start)
            prof.count("engine.epochs", epochs)
            prof.count("engine.cache_hits", cache_hits)
            prof.count("engine.speculated", speculated)
            prof.count(
                "engine.rollbacks",
                sum(v.rollbacks for v in vectors if v is not None),
            )
        return reports, epochs, cache_hits, speculated

    def _epochs(
        self,
        vectors: List[Optional[_VectorTenant]],
        static_sig: Optional[Signature],
    ) -> Tuple[int, int, int]:
        """The epoch time-wheel; returns ``(epochs, cache_hits, speculated)``."""
        network = self.evaluator.network
        static = static_sig is not None
        epochs = cache_hits = speculated = 0
        while True:
            # Phase 1: every active tenant declares its next evaluation need.
            groups: Dict[Signature, List[Tuple]] = {}
            ready: List[Tuple[_VectorTenant, Signature, float]] = []
            for vector in vectors:
                if vector is None or vector.done:
                    continue
                t_next = vector.peek_start()
                plan = vector.spec.plan
                signature = (
                    static_sig
                    or vector.next_signature
                    or network_state_signature(network, t_next)
                )
                latency = vector.memo.get((id(plan), signature))
                if latency is None:
                    groups.setdefault(signature, []).append((vector, plan, t_next))
                else:
                    cache_hits += 1
                    ready.append((vector, signature, latency))
            if not groups and not ready:
                break
            epochs += 1
            # Phase 2: one vectorised evaluation per distinct network state,
            # at the rate vector phase 1 sampled.
            for signature, members in groups.items():
                results = self.evaluator.evaluate_plans(
                    [plan for _, plan, _ in members], t_seconds=members[0][2], rates=signature
                )
                for (vector, plan, _), result in zip(members, results):
                    latency = result.end_to_end_ms
                    vector.memo.put((id(plan), signature), latency)
                    ready.append((vector, signature, latency))
            # Phase 3: commit every tenant's speculation window.
            for vector, signature, latency in ready:
                speculated += vector.advance(latency, signature, static, network) - 1
        return epochs, cache_hits, speculated

    def _epochs_faulted(
        self,
        vectors: List[Optional[_VectorTenant]],
        static_sig: Optional[Signature],
        ctx: FaultContext,
        tracer: Tracer,
    ) -> Tuple[int, int, int]:
        """The epoch time-wheel on a churning fleet.

        Three additions keep the column fast path under the churn parity
        contract:

        * every epoch resolves each tenant's *effective* plan from the live
          set at its next start — the same :class:`PlanDegrader` decision
          (and the same cached plan object) the reference loop uses;
        * speculation windows stop at the next membership event
          (:meth:`_VectorTenant.advance` with the fault trace), so no
          speculated commit can ever interact with churn;
        * a head request crossing the barrier is rolled back and resolved
          through the shared scalar retry-chain walk
          (:func:`~repro.runtime.faults.resolve_faulted_request`) with this
          engine's memoized latency oracle, then committed row by row —
          including abandoned rows, which hold their slot until the crash.

        Every head is evaluated as a singleton batch (a compiled plan walk).
        A tenant's index into ``vectors`` is its position in the caller's
        list, the index the retry jitter is drawn with.
        """
        network = self.evaluator.network
        static = static_sig is not None
        trace, retry, degrader = ctx.trace, ctx.retry, ctx.degrader
        epochs = cache_hits = speculated = 0

        def latency_of(vector: _VectorTenant, plan: DistributionPlan, t_s: float, signature=None) -> float:
            # The per-tenant memo keyed (plan, network state), falling through
            # to a singleton batch evaluation at the sampled rate vector.
            nonlocal cache_hits
            if signature is None:
                signature = static_sig or network_state_signature(network, t_s)
            latency = vector.memo.get((id(plan), signature))
            if latency is not None:
                cache_hits += 1
                return latency
            latency = self.evaluator.evaluate_plans(
                [plan], t_seconds=t_s, rates=signature
            )[0].end_to_end_ms
            vector.memo.put((id(plan), signature), latency)
            return latency

        while True:
            dispatched = False
            for index, vector in enumerate(vectors):
                if vector is None or vector.done:
                    continue
                dispatched = True
                release_s = vector.peek_start()
                signature = (
                    static_sig
                    or vector.next_signature
                    or network_state_signature(network, release_s)
                )
                eff = degrader.effective_plan(
                    vector.spec.plan, trace.live_indices(release_s * 1000.0)
                )
                latency = latency_of(vector, eff, release_s, signature)
                landed = vector.advance(latency, signature, static, network, trace)
                if landed:
                    speculated += landed - 1
                    continue
                # The head request crosses the next membership event: walk
                # its retry chain scalar and commit the resolution.
                resolved = resolve_faulted_request(
                    release_s,
                    vector.spec.plan,
                    lambda p, t: latency_of(vector, p, t),
                    trace,
                    retry,
                    degrader,
                    index,
                    vector.committed,
                )
                emit_resolution(tracer, vector.spec.name, release_s, resolved)
                vector.commit_resolved_head(resolved)
            if not dispatched:
                break
            epochs += 1
        return epochs, cache_hits, speculated


__all__ = [
    "ArrayServingEngine",
    "vectorizable",
    "MIN_SPECULATION",
    "MAX_SPECULATION",
]
