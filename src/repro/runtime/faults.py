"""Fleet churn, failure injection and recovery policies.

The serving stack assumed an immortal fleet: every device that starts a
scenario finishes it.  This module removes that assumption with four pieces:

* :class:`FaultTrace` — a seeded, deterministic timeline of device **join /
  leave / crash** events on an absolute-ms clock, plus the ``churn:`` spec
  grammar (:func:`parse_churn_spec`, :func:`resolve_churn`), written in the
  spec format ``gen:`` and ``traffic:`` also use (:mod:`repro.utils.specs`).
  A *crash* kills work in flight on the device; a *leave* is graceful
  (in-flight work finishes, the device just stops taking new work); a *join*
  revives a previously lost roster member.
* :class:`RetryPolicy` — per-tenant recovery: max attempts, exponential
  backoff with counter-based seeded jitter (execution-order independent, so
  every serving loop draws identical delays), and an optional per-request
  timeout.
* :class:`DegradationPolicy` — graceful load shedding: when the live fleet
  fraction drops below a threshold, the lowest-weight tenants have their
  open-loop arrivals rejected at arrival time for the duration of the
  degraded window, instead of letting the whole fleet collapse.
* :func:`resolve_faulted_request` / :func:`degrade_plan` — the shared pure
  decision logic: given a dispatch, a latency oracle and the trace, walk the
  retry chain (replan around dead devices, detect mid-inference crashes,
  back off, abandon) and return one :class:`ResolvedRequest`.  Both scalar
  serving loops and the array engine call this same function, which is what
  keeps churn under the repo's bit-exact parity contract.

Determinism contract: every decision here is a pure function of
``(trace, policies, dispatch times, latency floats)`` — no wall clocks, no
shared RNG streams — so the reference, batched and array loops reach
identical verdicts in identical order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.plan import DistributionPlan
from repro.utils.fold import fold_sum
from repro.utils.rng import counter_rng
from repro.utils.specs import SpecGrammar, read_float, read_int, render_value

#: Prefix of churn spec strings accepted by :func:`resolve_churn`.
CHURN_PREFIX = "churn:"

#: Event kinds the grammar understands.
CHURN_KINDS = ("crash", "leave", "join")

_GRAMMAR = SpecGrammar(CHURN_PREFIX, "churn", usage="churn:events=... or churn:crashes=...,seed=...")
_CHURN_KEYS = ("events", "crashes", "leaves", "joins", "seed", "start_ms", "window_ms")


# ---------------------------------------------------------------------- #
# fault events and traces
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultEvent:
    """One membership event: ``device`` crashes, leaves or (re)joins at ``t_ms``."""

    t_ms: float
    kind: str
    device: int

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn event kind {self.kind!r}; expected one of {sorted(CHURN_KINDS)}"
            )
        if self.t_ms < 0:
            raise ValueError(f"churn event times must be >= 0, got {self.t_ms}")

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.device}@{self.t_ms:g}"


@dataclass(frozen=True)
class FaultTrace:
    """A validated timeline of membership events over a fixed device roster.

    The roster has ``num_devices`` positions, all live at t=0.  Events toggle
    liveness; a ``join`` may only revive a roster member that previously
    crashed or left (the fleet never grows beyond its roster — index
    stability is what keeps plans, lane accounting and reports comparable).
    An event takes effect *at* its timestamp: ``live_indices(t)`` reflects
    every event with ``t_event <= t``.

    Crash semantics for in-flight work use the **open** interval: a request
    spanning ``(start_ms, completion_ms)`` is killed by a crash strictly
    inside it.  A crash exactly at the completion tick does not kill the
    request (it already finished); a crash exactly at the dispatch tick is
    excluded at planning time instead (the dead device is not in
    ``live_indices(start_ms)``).
    """

    events: Tuple[FaultEvent, ...]
    num_devices: int

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        prev = 0.0
        live = set(range(self.num_devices))
        seg_times: List[float] = [0.0]
        seg_live: List[Tuple[int, ...]] = [tuple(sorted(live))]
        for e in events:
            if e.t_ms < prev:
                raise ValueError(
                    f"churn event times must be non-decreasing, got {e.t_ms} after {prev}"
                )
            prev = e.t_ms
            if not 0 <= e.device < self.num_devices:
                raise ValueError(
                    f"churn event {e.label!r} references unknown device id {e.device}; "
                    f"the fleet has {self.num_devices} devices (0..{self.num_devices - 1})"
                )
            if e.kind in ("crash", "leave"):
                if e.device not in live:
                    raise ValueError(
                        f"churn event {e.label!r} removes device {e.device}, "
                        "which is not live at that time"
                    )
                if len(live) == 1:
                    raise ValueError(
                        f"churn event {e.label!r} would {e.kind} the last remaining "
                        "device; the fleet must stay non-empty"
                    )
                live.remove(e.device)
            else:  # join
                if e.device in live:
                    raise ValueError(
                        f"churn event {e.label!r} joins device {e.device}, "
                        "which is already live"
                    )
                live.add(e.device)
            seg_times.append(e.t_ms)
            seg_live.append(tuple(sorted(live)))
        object.__setattr__(self, "_seg_times", tuple(seg_times))
        object.__setattr__(self, "_seg_live", tuple(seg_live))

    # -------------------------------------------------------------- #
    def live_indices(self, t_ms: float) -> Tuple[int, ...]:
        """Sorted tuple of live device indices at time ``t_ms`` (events at
        ``t_ms`` already applied) — also the churn component of cache keys."""
        idx = bisect_right(self._seg_times, t_ms) - 1  # type: ignore[attr-defined]
        return self._seg_live[max(idx, 0)]  # type: ignore[attr-defined]

    def live_fraction(self, t_ms: float) -> float:
        return len(self.live_indices(t_ms)) / self.num_devices

    def first_crash_touching(
        self, devices: FrozenSet[int], start_ms: float, end_ms: float
    ) -> Optional[FaultEvent]:
        """Earliest crash of a device in ``devices`` strictly inside
        ``(start_ms, end_ms)``, or ``None`` — the mid-inference kill test."""
        for e in self.events:
            if e.t_ms >= end_ms:
                return None
            if e.t_ms > start_ms and e.kind == "crash" and e.device in devices:
                return e
        return None

    def next_event_after(self, t_ms: float) -> Optional[float]:
        """Timestamp of the first event strictly after ``t_ms`` (any kind)."""
        for e in self.events:
            if e.t_ms > t_ms:
                return e.t_ms
        return None

    def segments(self, start_ms: float, end_ms: float) -> List[Tuple[float, float, Tuple[int, ...]]]:
        """Constant-liveness intervals ``(t0_ms, t1_ms, live)`` covering
        ``[start_ms, end_ms)``."""
        out: List[Tuple[float, float, Tuple[int, ...]]] = []
        times: Tuple[float, ...] = self._seg_times  # type: ignore[attr-defined]
        lives: Tuple[Tuple[int, ...], ...] = self._seg_live  # type: ignore[attr-defined]
        for i, (t0, live) in enumerate(zip(times, lives)):
            t1 = times[i + 1] if i + 1 < len(times) else float("inf")
            lo = max(t0, start_ms)
            hi = min(t1, end_ms)
            if hi > lo:
                out.append((lo, hi, live))
        return out

    # -------------------------------------------------------------- #
    @property
    def span_ms(self) -> float:
        """Timestamp of the last event (0 for an empty trace)."""
        return self.events[-1].t_ms if self.events else 0.0

    @property
    def live_at_end(self) -> int:
        return len(self._seg_live[-1])  # type: ignore[attr-defined]

    @property
    def num_crashes(self) -> int:
        return sum(1 for e in self.events if e.kind == "crash")

    @property
    def num_leaves(self) -> int:
        return sum(1 for e in self.events if e.kind == "leave")

    @property
    def num_joins(self) -> int:
        return sum(1 for e in self.events if e.kind == "join")

    @property
    def spec(self) -> str:
        """Canonical ``churn:`` spec; ``resolve_churn(spec, num_devices)``
        rebuilds an equal trace (an empty one renders as the seeded form)."""
        return ChurnSpec(events=tuple((e.kind, e.device, e.t_ms) for e in self.events)).spec


# ---------------------------------------------------------------------- #
# the churn: grammar
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChurnSpec:
    """Parsed ``churn:`` spec, resolvable against a fleet size.

    Either *explicit* (``events`` non-empty: a literal event list whose
    device ids must name roster members) or *seeded* (event counts drawn
    deterministically from ``seed`` inside ``[start_ms, start_ms +
    window_ms)``, valid for any fleet size).
    """

    events: Tuple[Tuple[str, int, float], ...] = ()
    crashes: int = 0
    leaves: int = 0
    joins: int = 0
    seed: int = 0
    start_ms: float = 1000.0
    window_ms: float = 10000.0

    def __post_init__(self) -> None:
        for count, name in ((self.crashes, "crashes"), (self.leaves, "leaves"), (self.joins, "joins")):
            if count < 0:
                raise ValueError(f"churn option {name} must be >= 0, got {count}")
        if self.seed < 0:
            raise ValueError(f"churn option seed must be >= 0, got {self.seed}")
        if self.start_ms < 0:
            raise ValueError(f"churn option start_ms must be >= 0, got {self.start_ms}")
        if self.window_ms <= 0:
            raise ValueError(f"churn option window_ms must be > 0, got {self.window_ms}")
        if not math.isfinite(self.start_ms + self.window_ms):
            raise ValueError(f"churn window end {self.start_ms} + {self.window_ms} must be finite")

    def resolve(self, num_devices: int) -> FaultTrace:
        """Materialise a :class:`FaultTrace` for a fleet of ``num_devices``."""
        if self.events:
            return FaultTrace(
                events=tuple(FaultEvent(t_ms=t, kind=k, device=d) for k, d, t in self.events),
                num_devices=num_devices,
            )
        return FaultTrace(events=self._generate(num_devices), num_devices=num_devices)

    def _generate(self, num_devices: int) -> Tuple[FaultEvent, ...]:
        # Pure function of (spec fields, num_devices): fresh generator per
        # call, sorted times, devices drawn from the evolving live/dead sets.
        # Events that would empty the fleet (or join with nobody dead) are
        # dropped deterministically rather than rejected.
        rng = np.random.default_rng(self.seed)
        kinds = ["crash"] * self.crashes + ["leave"] * self.leaves + ["join"] * self.joins
        if not kinds:
            return ()
        order = rng.permutation(len(kinds))
        kinds = [kinds[i] for i in order]
        times = np.sort(rng.uniform(self.start_ms, self.start_ms + self.window_ms, len(kinds)))
        live = set(range(num_devices))
        dead: set = set()
        events: List[FaultEvent] = []
        for kind, t in zip(kinds, times):
            if kind in ("crash", "leave"):
                if len(live) <= 1:
                    continue
                pool = sorted(live)
                dev = pool[int(rng.integers(len(pool)))]
                live.remove(dev)
                dead.add(dev)
            else:
                if not dead:
                    continue
                pool = sorted(dead)
                dev = pool[int(rng.integers(len(pool)))]
                dead.remove(dev)
                live.add(dev)
            events.append(FaultEvent(t_ms=float(round(float(t), 3)), kind=kind, device=dev))
        return tuple(events)

    @property
    def spec(self) -> str:
        if self.events:
            return _GRAMMAR.render(events=";".join(f"{k}:{d}@{render_value(t)}" for k, d, t in self.events))
        return _GRAMMAR.render(
            crashes=self.crashes, leaves=self.leaves, joins=self.joins,
            seed=self.seed, start_ms=self.start_ms, window_ms=self.window_ms,
        )


def _parse_event_item(item: str) -> Tuple[str, int, float]:
    """One explicit event: ``<kind>:<device>@<t_ms>``."""
    head, sep, t_raw = item.partition("@")
    kind, sep2, dev_raw = head.partition(":")
    if not sep or not sep2:
        raise ValueError(
            f"malformed churn event {item!r}; expected <kind>:<device>@<t_ms> "
            f"with kind one of {sorted(CHURN_KINDS)}"
        )
    kind = kind.strip().lower()
    if kind not in CHURN_KINDS:
        raise ValueError(
            f"unknown churn event kind {kind!r} in {item!r}; expected one of {sorted(CHURN_KINDS)}"
        )
    device = read_int(f"churn event {item!r} device", dev_raw.strip())
    return kind, device, read_float(f"churn event {item!r} time", t_raw.strip())


def parse_churn_spec(spec: str) -> ChurnSpec:
    """Parse the ``churn:`` grammar into a :class:`ChurnSpec`.

    Two forms, in the spec format of :mod:`repro.utils.specs`:

    ==========  =================================================================
    form        keys (defaults)
    ==========  =================================================================
    explicit    ``events`` — ``;``-separated ``<kind>:<device>@<t_ms>`` items,
                e.g. ``churn:events=crash:3@5000;leave:1@8000``
    seeded      ``crashes`` (0), ``leaves`` (0), ``joins`` (0), ``seed`` (0),
                ``start_ms`` (1000), ``window_ms`` (10000) — events drawn
                deterministically inside ``[start_ms, start_ms + window_ms)``
    ==========  =================================================================

    The forms are mutually exclusive.  Event timestamps must be
    non-decreasing, device ids must name roster members, and the fleet must
    stay non-empty — violations raise ``ValueError`` at resolve time.
    """
    options = _GRAMMAR.options(spec)
    _GRAMMAR.check_keys(options, _CHURN_KEYS)
    if "events" in options:
        extra = set(options) - {"events"}
        if extra:
            raise ValueError(
                f"churn:events=... cannot be combined with {sorted(extra)}; "
                "the explicit and seeded forms are mutually exclusive"
            )
        events = tuple(_parse_event_item(part) for part in options["events"].split(";") if part.strip())
        if not events:
            raise ValueError("churn:events requires at least one <kind>:<device>@<t_ms> item")
        return ChurnSpec(events=events)
    number, integer = _GRAMMAR.number, _GRAMMAR.integer
    return ChurnSpec(
        crashes=integer(options, "crashes", 0),
        leaves=integer(options, "leaves", 0),
        joins=integer(options, "joins", 0),
        seed=integer(options, "seed", 0),
        start_ms=number(options, "start_ms", 1000.0),
        window_ms=number(options, "window_ms", 10000.0),
    )


def resolve_churn(
    churn: Union[str, ChurnSpec, FaultTrace], num_devices: int
) -> FaultTrace:
    """Accept a ``churn:`` spec string, a parsed spec or a built trace."""
    if isinstance(churn, FaultTrace):
        if churn.num_devices != num_devices:
            raise ValueError(
                f"FaultTrace covers {churn.num_devices} devices but the fleet has "
                f"{num_devices}; rebuild the trace for this fleet"
            )
        return churn
    if isinstance(churn, ChurnSpec):
        return churn.resolve(num_devices)
    return parse_churn_spec(churn).resolve(num_devices)


# ---------------------------------------------------------------------- #
# recovery policies
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Per-tenant mid-inference recovery: attempts, backoff, jitter, timeout.

    A request killed by a crash is retried after
    ``backoff_ms * multiplier**(attempt-1)`` plus a uniform jitter in
    ``[0, jitter_ms)`` drawn from a counter-based stream keyed
    ``(seed, tenant, request, attempt)`` — a pure function of its counters,
    so every serving loop observes identical delays regardless of execution
    order.  ``timeout_ms`` bounds how far past its first dispatch a request
    may still be retried; ``None`` disables the bound.
    """

    max_attempts: int = 3
    backoff_ms: float = 50.0
    multiplier: float = 2.0
    jitter_ms: float = 10.0
    timeout_ms: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (math.isfinite(self.backoff_ms) and self.backoff_ms >= 0):
            raise ValueError(f"backoff_ms must be >= 0 and finite, got {self.backoff_ms}")
        if not (math.isfinite(self.multiplier) and self.multiplier >= 1):
            raise ValueError(f"multiplier must be >= 1 and finite, got {self.multiplier}")
        if not (math.isfinite(self.jitter_ms) and self.jitter_ms >= 0):
            raise ValueError(f"jitter_ms must be >= 0 and finite, got {self.jitter_ms}")
        if self.timeout_ms is not None and not self.timeout_ms >= self.backoff_ms:
            raise ValueError(
                f"timeout_ms must be >= backoff_ms ({self.backoff_ms}), got {self.timeout_ms}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def delay_ms(self, attempt: int, tenant_index: int, request_ordinal: int) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` is the failed
        attempt number, 1-based)."""
        base = self.backoff_ms * self.multiplier ** (attempt - 1)
        if self.jitter_ms > 0:
            rng = counter_rng(self.seed, tenant_index, request_ordinal, attempt)
            return base + float(rng.uniform(0.0, self.jitter_ms))
        return base


@dataclass(frozen=True)
class DegradationPolicy:
    """Deterministic load shedding under capacity loss.

    While the live fleet fraction is below ``min_live_fraction``, tenants are
    shed **lowest weight first** (ties by tenant index) until the kept weight
    fraction fits the surviving capacity, always keeping at least one tenant.
    Shed tenants have their open-loop arrivals rejected *at arrival time* for
    the duration of the degraded window — a pure function of
    ``(trace, weights, threshold)``, so every loop sheds the same requests.
    Closed-loop tenants are never shed (they self-throttle by construction).
    """

    min_live_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.min_live_fraction <= 1.0:
            raise ValueError(
                f"min_live_fraction must be in (0, 1], got {self.min_live_fraction}"
            )

    def shed_order(self, weights: Sequence[float]) -> Tuple[int, ...]:
        """Deterministic shed preference: lowest weight first, ties by index.

        The single source of truth for "who goes first" — shared by
        capacity-loss shedding (:meth:`shed_tenants`) and the SLO burn-rate
        monitor's advisory plan (:func:`repro.obs.slo.shed_restore_plan`),
        so the two control paths can never disagree on the victim order.
        """
        return tuple(sorted(range(len(weights)), key=lambda i: (weights[i], i)))

    def shed_tenants(self, weights: Sequence[float], live_fraction: float) -> Tuple[int, ...]:
        """Tenant indices to shed at a given live fraction (possibly empty)."""
        if live_fraction >= self.min_live_fraction or len(weights) <= 1:
            return ()
        total = float(fold_sum(weights))
        if total <= 0:
            return ()
        order = self.shed_order(weights)
        shed: List[int] = []
        kept = total
        for idx in order[:-1]:  # always keep at least one tenant
            if kept / total <= live_fraction:
                break
            shed.append(idx)
            kept -= weights[idx]
        return tuple(sorted(shed))

    def plan(
        self,
        trace: FaultTrace,
        weights: Sequence[float],
        start_s: float,
        horizon_s: float,
    ) -> Tuple[Tuple[Tuple[float, float], ...], Tuple[Tuple[float, float], ...]]:
        """Degradation plan over ``[start_s, horizon_s)``.

        Returns ``(per_tenant_shed_intervals_s, degraded_windows_s)``: for
        each tenant a tuple of ``(t0_s, t1_s)`` intervals in which its
        arrivals are shed, plus the overall degraded windows.
        """
        per_tenant: List[List[Tuple[float, float]]] = [[] for _ in weights]
        windows: List[Tuple[float, float]] = []
        for t0_ms, t1_ms, live in trace.segments(start_s * 1000.0, horizon_s * 1000.0):
            fraction = len(live) / trace.num_devices
            if fraction >= self.min_live_fraction:
                continue
            lo, hi = t0_ms / 1000.0, t1_ms / 1000.0
            if windows and windows[-1][1] == lo:
                windows[-1] = (windows[-1][0], hi)
            else:
                windows.append((lo, hi))
            for idx in self.shed_tenants(weights, fraction):
                spans = per_tenant[idx]
                if spans and spans[-1][1] == lo:
                    spans[-1] = (spans[-1][0], hi)
                else:
                    spans.append((lo, hi))
        return (
            tuple(tuple(spans) for spans in per_tenant),
            tuple(windows),
        )


# ---------------------------------------------------------------------- #
# replanning around dead devices
# ---------------------------------------------------------------------- #


def plan_devices(plan: DistributionPlan) -> FrozenSet[int]:
    """Roster indices a plan's execution touches (providers + dense head)."""
    touched = {idx for a in plan.assignments for idx in a.active_devices}
    if plan.model.head_layers:
        touched.add(plan.head_device)
    return frozenset(touched)


def degrade_plan(plan: DistributionPlan, live: Sequence[int]) -> DistributionPlan:
    """Failover strategy for ``plan`` when only ``live`` devices survive.

    If the plan touches only live devices it is returned unchanged.
    Otherwise the whole model is offloaded to the surviving device that held
    the largest share of the original plan (ties: lowest index; devices
    absent from the plan rank last) — the deterministic, always-feasible
    fallback strategy.  The full roster is kept in the plan so device
    indices stay stable for lane accounting.
    """
    return plan if plan_devices(plan) <= set(live) else _failover_plan(plan, live)


def _failover_plan(plan: DistributionPlan, live: Sequence[int]) -> DistributionPlan:
    """:func:`degrade_plan`'s single-device fallback for a plan touching a dead device."""
    if not live:
        raise ValueError("cannot replan: no live devices remain")
    shares = [0.0] * plan.num_devices
    for a in plan.assignments:
        for dev, rows in enumerate(a.decision.rows_per_device()):
            shares[dev] += rows
    target = min(live, key=lambda j: (-shares[j], j))
    return DistributionPlan.single_device(
        plan.model, plan.devices, target, method=f"{plan.method}+failover"
    )


class PlanDegrader:
    """Per-run cache of failover plans keyed ``(plan identity, live set)``.

    Both serving loops of one run share a single instance, so the same
    ``DistributionPlan`` object is reused for repeated (plan, live-set)
    queries and downstream identity-keyed latency caches stay warm.  The
    device set each plan touches (the crash test's input) is cached beside
    it: computing it walks every assignment, far dearer than a dispatch of
    a churn-free run.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, Tuple[int, ...]], DistributionPlan] = {}
        self._devices: Dict[int, FrozenSet[int]] = {}
        self._keep: List[DistributionPlan] = []  # pin id() keys alive

    def effective_plan(self, plan: DistributionPlan, live: Tuple[int, ...]) -> DistributionPlan:
        """:func:`degrade_plan` of ``plan`` on the sorted, unique ``live`` indices."""
        if len(live) == plan.num_devices:
            return plan  # the whole roster is live
        key = (id(plan), live)
        hit = self._cache.get(key)
        if hit is None:
            hit = plan if self.devices(plan) <= set(live) else _failover_plan(plan, live)
            self._cache[key] = hit
            self._keep.append(plan)
        return hit

    def devices(self, plan: DistributionPlan) -> FrozenSet[int]:
        """:func:`plan_devices` of ``plan``, computed once per plan."""
        touched = self._devices.get(id(plan))
        if touched is None:
            touched = self._devices[id(plan)] = plan_devices(plan)
            self._keep.append(plan)
        return touched


# ---------------------------------------------------------------------- #
# the shared retry-chain resolver
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResolvedRequest:
    """Outcome of walking one dispatch through the fault/retry chain.

    ``latency_ms`` spans first dispatch to final completion (it includes
    lost attempts and backoff); ``retry_added_ms`` is the delay between the
    first dispatch and the start of the terminating attempt.
    """

    status: str  # "completed" | "abandoned"
    latency_ms: float
    lost_attempts: int
    retry_added_ms: float
    abandon_s: Optional[float]
    plan: DistributionPlan
    attempts: int

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def resolve_faulted_request(
    start_s: float,
    plan: DistributionPlan,
    latency_of: Callable[[DistributionPlan, float], float],
    trace: FaultTrace,
    retry: RetryPolicy,
    degrader: PlanDegrader,
    tenant_index: int,
    request_ordinal: int,
) -> ResolvedRequest:
    """Walk one uncontended dispatch through crashes, retries and replans.

    ``latency_of(plan, t_s)`` must be the loop's latency oracle — the only
    floats entering the decision — so reference, batched and array loops
    calling this function with bit-identical oracles resolve identically.
    """
    start_ms = start_s * 1000.0
    t_ms = start_ms
    # The first attempt is evaluated at the dispatch's own start: a
    # (start_s * 1000) / 1000 round trip is off by an ulp for ~2% of starts,
    # which on an interpolated trace can move the sampled rate.
    t_s = start_s
    attempt = 1
    lost = 0
    while True:
        eff = degrader.effective_plan(plan, trace.live_indices(t_ms))
        lat = latency_of(eff, t_s)
        crash = trace.first_crash_touching(degrader.devices(eff), t_ms, t_ms + lat)
        if crash is None:
            # First-attempt completions return the oracle's float untouched —
            # a (t_ms + lat) - start_ms round trip would cost an ulp and
            # break bit-parity with loops that commit the raw latency.
            return ResolvedRequest(
                status="completed",
                latency_ms=lat if attempt == 1 else (t_ms + lat) - start_ms,
                lost_attempts=lost,
                retry_added_ms=t_ms - start_ms,
                abandon_s=None,
                plan=eff,
                attempts=attempt,
            )
        lost += 1
        fail_ms = crash.t_ms
        next_ms = fail_ms + retry.delay_ms(attempt, tenant_index, request_ordinal)
        timed_out = retry.timeout_ms is not None and next_ms - start_ms > retry.timeout_ms
        if attempt >= retry.max_attempts or timed_out:
            return ResolvedRequest(
                status="abandoned",
                latency_ms=fail_ms - start_ms,
                lost_attempts=lost,
                retry_added_ms=t_ms - start_ms,
                abandon_s=fail_ms / 1000.0,
                plan=eff,
                attempts=attempt,
            )
        t_ms = next_ms
        t_s = t_ms / 1000.0
        attempt += 1


# ---------------------------------------------------------------------- #
# the per-run fault context shared by every serving loop
# ---------------------------------------------------------------------- #


@dataclass
class FaultContext:
    """Everything one serving run needs to decide fault outcomes.

    Built once per :meth:`ServingSimulator.run` call and shared by whichever
    loop executes it (reference, batched or array) — the decisions are pure
    functions of this context plus the loop's latency floats, which is the
    churn parity contract.
    """

    trace: FaultTrace
    retry: RetryPolicy
    degradation: Optional[DegradationPolicy]
    degrader: PlanDegrader
    #: Per-tenant arrival-time shed intervals (seconds), degradation-planned.
    shed_intervals: Tuple[Tuple[Tuple[float, float], ...], ...]
    degraded_windows_s: Tuple[Tuple[float, float], ...]
    horizon_s: float


def build_fault_context(
    faults: Union[str, ChurnSpec, FaultTrace, None],
    retry: Optional[RetryPolicy],
    degradation: Optional[DegradationPolicy],
    num_devices: int,
    weights: Sequence[float],
    start_s: float,
    duration_s: Optional[float],
) -> FaultContext:
    """Resolve the churn arguments of one serving run into a context.

    ``None`` faults means an immortal fleet: the context holds the empty
    trace, the default retry policy and no shedding, so every loop runs its
    one churn-aware path and no fault ever fires.  Retry/degradation
    policies are meaningless there and rejected (mirroring how contention
    knobs require ``--contention``).
    """
    if faults is None:
        if retry is not None or degradation is not None:
            raise ValueError(
                "RetryPolicy/DegradationPolicy model fleet churn; "
                "pass faults (a churn: spec or FaultTrace) to enable them"
            )
        trace = FaultTrace((), num_devices)
    else:
        trace = resolve_churn(faults, num_devices)
    horizon_s = (
        start_s + duration_s
        if duration_s is not None
        else max(start_s, trace.span_ms / 1000.0)
    )
    if degradation is not None:
        shed, windows = degradation.plan(trace, weights, start_s, horizon_s)
    else:
        shed, windows = tuple(() for _ in weights), ()
    return FaultContext(
        trace=trace,
        retry=retry if retry is not None else RetryPolicy(),
        degradation=degradation,
        degrader=PlanDegrader(),
        shed_intervals=shed,
        degraded_windows_s=windows,
        horizon_s=horizon_s,
    )


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultReport:
    """Churn outcome summary attached to a ``ServingReport``."""

    num_crashes: int
    num_leaves: int
    num_joins: int
    live_at_end: int
    lost_attempts: int
    retried_requests: int
    abandoned_requests: int
    retry_latency_added_ms: float
    degraded_ms: float
    shed_by_tenant: Tuple[int, ...]
    degraded_windows_s: Tuple[Tuple[float, float], ...] = field(default=())

    @property
    def total_shed(self) -> int:
        return int(sum(self.shed_by_tenant))

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_crashes": self.num_crashes,
            "num_leaves": self.num_leaves,
            "num_joins": self.num_joins,
            "live_at_end": self.live_at_end,
            "lost_attempts": self.lost_attempts,
            "retried_requests": self.retried_requests,
            "abandoned_requests": self.abandoned_requests,
            "retry_latency_added_ms": self.retry_latency_added_ms,
            "degraded_ms": self.degraded_ms,
            "degraded_windows_s": [list(w) for w in self.degraded_windows_s],
            "shed_by_tenant": list(self.shed_by_tenant),
            "total_shed": self.total_shed,
        }


def build_fault_report(ctx: FaultContext, tenant_reports: Sequence) -> FaultReport:
    """Summarise a run's churn outcome from its context and tenant reports.

    ``tenant_reports`` are :class:`repro.serving.tenants.TenantReport` rows
    (duck-typed here to keep this package importable below the serving
    layer).  Sums run in tenant order, so the float accumulation is
    identical across loops.
    """
    degraded_ms = float(fold_sum((hi - lo) * 1000.0 for lo, hi in ctx.degraded_windows_s))
    return FaultReport(
        num_crashes=ctx.trace.num_crashes,
        num_leaves=ctx.trace.num_leaves,
        num_joins=ctx.trace.num_joins,
        live_at_end=ctx.trace.live_at_end,
        lost_attempts=int(sum(t.num_lost_attempts for t in tenant_reports)),
        retried_requests=int(sum(t.num_retried for t in tenant_reports)),
        abandoned_requests=int(sum(t.num_abandoned for t in tenant_reports)),
        retry_latency_added_ms=float(fold_sum(t.retry_added_ms for t in tenant_reports)),
        degraded_ms=degraded_ms,
        shed_by_tenant=tuple(int(t.num_shed) for t in tenant_reports),
        degraded_windows_s=ctx.degraded_windows_s,
    )


def emit_resolution(tracer, tenant_name: str, release_s: float, resolved) -> None:
    """Emit one request's retry-chain resolution as a trace instant.

    Shared by every serving loop so the emitted bytes are identical by
    construction.  Only *eventful* resolutions emit (a retry happened or an
    attempt was lost); first-attempt completions stay silent — their
    lifecycle is derived from the committed report.  The event sets match
    across loops because the array engine window-commits only requests whose
    span contains no membership event, so every eventful request reaches the
    scalar resolver in all modes.
    """
    if not tracer.enabled:
        return
    if resolved.attempts <= 1 and not resolved.lost_attempts:
        return
    tracer.instant(
        release_s * 1000.0,
        f"tenant:{tenant_name}",
        "fault",
        "retry_chain",
        attempts=resolved.attempts,
        lost_attempts=resolved.lost_attempts,
        retry_added_ms=resolved.retry_added_ms,
        status=resolved.status,
    )


def emit_fault_timeline(tracer, trace: FaultTrace) -> None:
    """Emit the membership timeline as trace instants on the ``fleet`` track.

    Pure function of the :class:`FaultTrace` (itself a pure function of the
    churn spec), so the emitted events are identical no matter which serving
    loop ran the scenario.
    """
    if not tracer.enabled:
        return
    for event in trace.events:
        tracer.instant(
            event.t_ms, "fleet", "fault", event.kind, device=event.device
        )


__all__ = [
    "CHURN_PREFIX",
    "CHURN_KINDS",
    "FaultEvent",
    "FaultTrace",
    "ChurnSpec",
    "parse_churn_spec",
    "resolve_churn",
    "RetryPolicy",
    "DegradationPolicy",
    "plan_devices",
    "degrade_plan",
    "PlanDegrader",
    "ResolvedRequest",
    "resolve_faulted_request",
    "FaultContext",
    "build_fault_context",
    "FaultReport",
    "build_fault_report",
    "emit_fault_timeline",
    "emit_resolution",
]
