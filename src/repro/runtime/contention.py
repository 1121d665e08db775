"""Contention-aware concurrent execution over a shared lane fleet.

The paper's Section V-A lane model (:mod:`repro.runtime.lanes`) assumes one
image in flight: every evaluation starts from empty lanes, so two inferences
dispatched onto the same cluster never compete for a device's compute, send
or receive thread.  This module removes that assumption:

* :class:`SharedFleetState` keeps one *persistent* set of provider lanes
  whose busy-until times survive across inferences — the residual occupancy
  one tenant's request leaves behind is exactly what the next tenant's
  request queues on.
* :class:`ContentionAwareEvaluator` schedules a plan *against* that shared
  state: a request released at absolute time ``r`` sees, per lane, the
  relative residual ``max(0, busy_until - r)``, and its schedule is computed
  in release-relative time with those residuals (and an optional admission
  gate) as lane floors.  The returned latency is the **contended makespan**
  — queueing on other requests' lane occupancy included — alongside a
  per-lane queueing-delay breakdown.

Determinism and the memo.  The relative schedule of one request is a pure
function of ``(model, plan structure, instantaneous network state, admission
gate, lane residuals)`` — the same argument that makes the batch engine's
plan LRU sound (PR 1) extends here with the residual vector added to the
key.  :class:`ContentionAwareEvaluator` therefore memoizes contended
schedules in an LRU on exactly that key: the serving loop's *batched* mode
groups equal-signature dispatches into one evaluation, while the *reference*
mode (``memoize=False``) re-walks every request scalar-ly — and the two are
bit-identical because a memo hit replays the very floats a fresh walk would
produce.

The walk itself is the wrapped evaluator's own: a
:class:`~repro.runtime.batch.BatchPlanEvaluator`'s
:class:`~repro.runtime.batch.CompiledPlan` walk, or else
:class:`~repro.runtime.evaluator.PlanEvaluator`'s ``process_volume``/
``finalize`` code — driven over lanes pre-seeded with the residuals (plus
wait-time recording that never changes a scheduled float).  The two walks
are bit-identical.  With all residuals zero the walk *is* the uncontended
evaluation, so an idle fleet reproduces the paper's one-image-in-flight
numbers exactly.

Prediction vs. commitment.  :meth:`ContentionAwareEvaluator.predict`
computes a request's contended outcome *without* touching the shared state;
:meth:`~ContentionAwareEvaluator.commit` applies a predicted outcome, and
:meth:`~ContentionAwareEvaluator.evaluate` is exactly the two in sequence.
The split is what the predictive control plane (:mod:`repro.serving.control`)
builds on: deny-at-admission consults ``predict`` and only commits admitted
requests.  See ``docs/architecture.md`` for how this module sits between the
serving loops and the planner core, and which parity contracts bind it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import REQUESTER
from repro.nn.graph import ModelSpec
from repro.runtime.batch import BatchPlanEvaluator, network_state_signature, plan_signature
from repro.runtime.evaluator import EvaluationResult, PlanEvaluator
from repro.runtime.lanes import LaneSet
from repro.runtime.plan import DistributionPlan
from repro.utils.cache import LRUCache

#: Lane roles of one provider, in the canonical signature order.
LANE_ROLES: Tuple[str, ...] = ("compute", "send", "recv")


def fleet_lane_keys(num_devices: int) -> List[Tuple[int, str]]:
    """Canonical ``(provider, role)`` order used by residual/end vectors."""
    return [(j, role) for j in range(num_devices) for role in LANE_ROLES]


class _RecordingLaneSet(LaneSet):
    """A :class:`LaneSet` that also accounts how long each job queued.

    ``note_wait`` records ``max(0, busy_until - earliest)`` — the time a
    job's start was (or would have been) held back by the lane's prior
    occupancy — through :meth:`add_wait`, the hook the compiled walk calls
    directly.  Recording is pure bookkeeping: every scheduled float is
    produced by the unmodified base-class arithmetic.
    """

    def __init__(self) -> None:
        super().__init__()
        self.wait_ms: Dict[Tuple[Hashable, str], float] = {}

    def add_wait(self, endpoint: Hashable, role: str, wait_ms: float) -> None:
        key = (endpoint, role)
        self.wait_ms[key] = self.wait_ms.get(key, 0.0) + wait_ms

    def note_wait(self, endpoint: Hashable, role: str, earliest_ms: float) -> None:
        lane = self.lane(endpoint, role)
        if lane.free_at > earliest_ms:
            self.add_wait(endpoint, role, lane.free_at - earliest_ms)

    def schedule(
        self, endpoint: Hashable, role: str, earliest_start: float, duration_ms: float
    ) -> Tuple[float, float]:
        self.note_wait(endpoint, role, earliest_start)
        return super().schedule(endpoint, role, earliest_start, duration_ms)


class _ContendedWalk(PlanEvaluator):
    """The scalar evaluator walk, over wait-recording lanes.

    Scheduling arithmetic is inherited unchanged — ``_transfer`` only notes
    the send/recv lane waits before delegating, so a walk over all-zero
    residuals is operation-for-operation the uncontended evaluation.
    """

    def new_state(self):
        state = super().new_state()
        state.lanes = _RecordingLaneSet()
        return state

    def _transfer(self, state, src, dst, n_bytes, earliest_ms, t_seconds):
        if n_bytes > 0 and src != dst:
            state.lanes.note_wait(src, "send", earliest_ms)
            state.lanes.note_wait(dst, "recv", earliest_ms)
        return super()._transfer(state, src, dst, n_bytes, earliest_ms, t_seconds)


@dataclass(frozen=True)
class ContendedOutcome:
    """One request's contended schedule, in release-relative time.

    ``lane_*`` vectors follow :func:`fleet_lane_keys` order.  ``lane_end_rel``
    is each lane's busy-until after this request (equal to the residual it
    started from when the request never used the lane — ``lane_jobs`` tells
    the two apart); ``lane_wait_ms`` is how long this request's jobs queued
    on each lane's prior occupancy (cross-request residuals *and*
    intra-request serialisation).  ``gate_wait_ms`` is the admission-gate
    hold (``max_inflight``), already part of ``latency_ms``.
    """

    latency_ms: float
    lane_end_rel: Tuple[float, ...]
    lane_busy_ms: Tuple[float, ...]
    lane_wait_ms: Tuple[float, ...]
    lane_jobs: Tuple[int, ...]
    gate_wait_ms: float
    contended: bool


def truncated_outcome(outcome: ContendedOutcome, cut_rel_ms: float) -> ContendedOutcome:
    """Clamp a predicted schedule at a mid-flight failure instant.

    A device crash at ``release + cut_rel_ms`` kills the request there: every
    lane occupancy, busy and wait interval is cut at the crash and the
    request's latency becomes the time it held the fleet before dying.  The
    clamp is pure arithmetic on the outcome vectors — identical in every
    serving loop — and the truncated outcome commits through the unmodified
    :meth:`SharedFleetState.commit` (the completion it registers at the crash
    instant is what frees the admission gate and the WFQ accounting).  Lanes
    the request never used (``lane_jobs == 0``) are ignored by ``commit``, so
    clamping their carried-through residuals is harmless.
    """
    if cut_rel_ms < 0:
        raise ValueError(f"cut_rel_ms must be >= 0, got {cut_rel_ms}")
    return ContendedOutcome(
        latency_ms=cut_rel_ms,
        lane_end_rel=tuple(min(e, cut_rel_ms) for e in outcome.lane_end_rel),
        lane_busy_ms=tuple(min(b, cut_rel_ms) for b in outcome.lane_busy_ms),
        lane_wait_ms=tuple(min(w, cut_rel_ms) for w in outcome.lane_wait_ms),
        lane_jobs=outcome.lane_jobs,
        gate_wait_ms=min(outcome.gate_wait_ms, cut_rel_ms),
        contended=outcome.contended,
    )


@dataclass(eq=False)
class FleetLoadSeries:
    """Windowed time series of fleet load (the :class:`FleetLoadReport` totals
    resolved over fixed ``window_ms`` buckets of absolute simulated time).

    ``*_busy_ms`` / ``*_wait_ms`` are ``(windows, devices)`` matrices; a
    request's lane busy time is attributed to the windows its occupancy
    interval overlaps (proportionally), its queueing delay to the windows
    following its release, so every column family sums — over windows — to
    the corresponding run total exactly (up to float summation order).
    ``inflight_ms`` is per-window total in-flight request time (latency mass)
    and ``released`` counts request releases per window.
    """

    window_ms: float
    compute_busy_ms: np.ndarray
    send_busy_ms: np.ndarray
    recv_busy_ms: np.ndarray
    compute_wait_ms: np.ndarray
    send_wait_ms: np.ndarray
    recv_wait_ms: np.ndarray
    inflight_ms: np.ndarray
    released: np.ndarray

    @property
    def num_windows(self) -> int:
        return int(self.released.shape[0])

    def utilization(self, role: str) -> np.ndarray:
        """Per-window per-device busy fraction of one lane role."""
        if role not in LANE_ROLES:
            raise ValueError(f"role must be one of {LANE_ROLES}, got {role!r}")
        busy = getattr(self, f"{role}_busy_ms")
        if self.window_ms <= 0:
            return np.zeros_like(busy)
        return busy / self.window_ms

    def mean_utilization(self, role: str = "compute") -> np.ndarray:
        """Per-window busy fraction of one role, averaged across devices."""
        util = self.utilization(role)
        return util.mean(axis=1) if util.size else np.zeros(0)

    def to_dict(self) -> Dict:
        return {
            "window_ms": float(self.window_ms),
            "num_windows": self.num_windows,
            "compute_busy_ms": [[float(v) for v in row] for row in self.compute_busy_ms],
            "send_busy_ms": [[float(v) for v in row] for row in self.send_busy_ms],
            "recv_busy_ms": [[float(v) for v in row] for row in self.recv_busy_ms],
            "compute_wait_ms": [[float(v) for v in row] for row in self.compute_wait_ms],
            "send_wait_ms": [[float(v) for v in row] for row in self.send_wait_ms],
            "recv_wait_ms": [[float(v) for v in row] for row in self.recv_wait_ms],
            "inflight_ms": [float(v) for v in self.inflight_ms],
            "released": [int(v) for v in self.released],
        }


class _WindowAccumulator:
    """Grow-on-demand window buckets behind :class:`FleetLoadSeries`.

    Intervals are attributed by exact overlap with each ``window_ms`` bucket;
    the buffers double on growth so commits stay amortised O(overlapping
    windows).  Accumulation is pure bookkeeping — it never feeds back into
    any scheduled float, so enabling the series cannot perturb parity.
    """

    BUSY_WAIT_FIELDS = tuple(
        f"{role}_{kind}" for role in LANE_ROLES for kind in ("busy", "wait")
    )

    def __init__(self, num_devices: int, window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        self.num_devices = int(num_devices)
        self.window_ms = float(window_ms)
        self._mats: Dict[str, np.ndarray] = {
            field: np.zeros((0, num_devices)) for field in self.BUSY_WAIT_FIELDS
        }
        self._inflight = np.zeros(0)
        self._released = np.zeros(0, dtype=np.int64)
        self._used = 0

    def _ensure(self, windows: int) -> None:
        self._used = max(self._used, windows)
        current = self._inflight.shape[0]
        if windows <= current:
            return
        grow = max(windows, 2 * current, 4)
        for field, mat in self._mats.items():
            new = np.zeros((grow, self.num_devices))
            new[:current] = mat
            self._mats[field] = new
        new_inflight = np.zeros(grow)
        new_inflight[:current] = self._inflight
        self._inflight = new_inflight
        new_released = np.zeros(grow, dtype=np.int64)
        new_released[:current] = self._released
        self._released = new_released

    def _overlaps(self, t0_ms: float, t1_ms: float):
        """Yield ``(window index, overlap ms)`` covering ``[t0, t1)``."""
        if t1_ms <= t0_ms:
            return
        w = self.window_ms
        first = int(t0_ms // w)
        last = max(first + 1, int(-(-t1_ms // w)))  # ceil
        self._ensure(last)
        for idx in range(first, last):
            overlap = min(t1_ms, (idx + 1) * w) - max(t0_ms, idx * w)
            if overlap > 0:
                yield idx, overlap

    def add_lane(self, field: str, device: int, t0_ms: float, t1_ms: float) -> None:
        mat = self._mats[field]
        for idx, overlap in self._overlaps(t0_ms, t1_ms):
            mat = self._mats[field]  # _ensure may have reallocated
            mat[idx, device] += overlap

    def add_request(self, release_ms: float, latency_ms: float) -> None:
        for idx, overlap in self._overlaps(release_ms, release_ms + latency_ms):
            self._inflight[idx] += overlap
        idx = int(release_ms // self.window_ms)
        self._ensure(idx + 1)
        self._released[idx] += 1

    def series(self) -> FleetLoadSeries:
        n = self._used
        return FleetLoadSeries(
            window_ms=self.window_ms,
            compute_busy_ms=self._mats["compute_busy"][:n].copy(),
            send_busy_ms=self._mats["send_busy"][:n].copy(),
            recv_busy_ms=self._mats["recv_busy"][:n].copy(),
            compute_wait_ms=self._mats["compute_wait"][:n].copy(),
            send_wait_ms=self._mats["send_wait"][:n].copy(),
            recv_wait_ms=self._mats["recv_wait"][:n].copy(),
            inflight_ms=self._inflight[:n].copy(),
            released=self._released[:n].copy(),
        )


@dataclass(eq=False)
class FleetLoadReport:
    """Cumulative per-device lane load of one contended serving run.

    Arrays are ``(devices,)``-shaped, one entry per provider; ``*_busy_ms``
    is total lane occupancy, ``*_wait_ms`` total queueing delay recorded on
    the lane, ``*_jobs`` the number of jobs it served.  ``utilization`` of a
    lane is its busy time over the run makespan.  ``series`` is the optional
    :class:`FleetLoadSeries` (present when the fleet was created with a
    ``window_ms``).
    """

    device_ids: List[str]
    compute_busy_ms: np.ndarray
    send_busy_ms: np.ndarray
    recv_busy_ms: np.ndarray
    compute_wait_ms: np.ndarray
    send_wait_ms: np.ndarray
    recv_wait_ms: np.ndarray
    compute_jobs: np.ndarray
    send_jobs: np.ndarray
    recv_jobs: np.ndarray
    makespan_ms: float
    requests: int
    contended_requests: int
    gate_wait_ms: float
    series: Optional[FleetLoadSeries] = None

    def utilization(self, role: str) -> np.ndarray:
        """Per-device busy fraction of one lane role over the makespan."""
        if role not in LANE_ROLES:
            raise ValueError(f"role must be one of {LANE_ROLES}, got {role!r}")
        busy = getattr(self, f"{role}_busy_ms")
        if self.makespan_ms <= 0:
            return np.zeros_like(busy)
        return busy / self.makespan_ms

    @property
    def total_wait_ms(self) -> float:
        """All queueing delay recorded on provider lanes (gate excluded)."""
        return float(
            self.compute_wait_ms.sum() + self.send_wait_ms.sum() + self.recv_wait_ms.sum()
        )

    @property
    def contended_share(self) -> float:
        """Fraction of requests that saw a non-idle fleet at dispatch."""
        return self.contended_requests / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict:
        return {
            "device_ids": list(self.device_ids),
            "compute_busy_ms": [float(v) for v in self.compute_busy_ms],
            "send_busy_ms": [float(v) for v in self.send_busy_ms],
            "recv_busy_ms": [float(v) for v in self.recv_busy_ms],
            "compute_wait_ms": [float(v) for v in self.compute_wait_ms],
            "send_wait_ms": [float(v) for v in self.send_wait_ms],
            "recv_wait_ms": [float(v) for v in self.recv_wait_ms],
            "compute_jobs": [int(v) for v in self.compute_jobs],
            "send_jobs": [int(v) for v in self.send_jobs],
            "recv_jobs": [int(v) for v in self.recv_jobs],
            "compute_utilization": [float(v) for v in self.utilization("compute")],
            "makespan_ms": float(self.makespan_ms),
            "requests": int(self.requests),
            "contended_requests": int(self.contended_requests),
            "contended_share": float(self.contended_share),
            "gate_wait_ms": float(self.gate_wait_ms),
            "total_wait_ms": float(self.total_wait_ms),
            "series": self.series.to_dict() if self.series is not None else None,
        }


class SharedFleetState:
    """Persistent lane occupancy of one shared provider fleet.

    Lane busy-until times are kept in *absolute* milliseconds of simulated
    time; requests interact with them through release-relative residuals
    (:meth:`residuals`) and commit their relative lane ends back
    (:meth:`commit`).  The state also tracks completion times of committed
    requests for the cluster-wide ``max_inflight`` admission gate, and
    accumulates the per-lane busy/wait/job accounting that becomes the
    run's :class:`FleetLoadReport`.
    """

    def __init__(self, num_devices: int, window_ms: Optional[float] = None) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.num_devices = int(num_devices)
        self.window_ms = float(window_ms) if window_ms is not None else None
        self._windows = (
            _WindowAccumulator(self.num_devices, self.window_ms)
            if self.window_ms is not None
            else None
        )
        self.lane_keys = fleet_lane_keys(num_devices)
        self.lanes = LaneSet()
        # Column mirror of the lanes' busy-until times, in lane_keys order.
        # residuals()/busy_until_ms() run once per dispatch over every lane,
        # which made them the serving loop's hottest per-request Python on
        # big fleets; the mirror turns both into one array expression.
        # commit() is the only mutator of the lane objects and keeps the
        # mirror in sync, and max(0, free - release) is elementwise the very
        # float op of the scalar walk, so the vectors are bit-identical.
        self._free_ms = np.zeros(len(self.lane_keys))
        self.wait_ms: Dict[Tuple[int, str], float] = {}
        self._completions: List[float] = []  # sorted absolute completion times (ms)
        self.requests = 0
        self.contended_requests = 0
        self.gate_wait_ms = 0.0

    # ------------------------------------------------------------------ #
    def residuals(self, release_ms: float) -> Tuple[float, ...]:
        """Per-lane leftover occupancy relative to ``release_ms`` (>= 0)."""
        return tuple(np.maximum(self._free_ms - release_ms, 0.0).tolist())

    def busy_until_ms(self) -> float:
        """Latest lane busy-until across the fleet (0 when never used)."""
        return float(self._free_ms.max())

    def next_free_event_ms(self, release_ms: float) -> Optional[float]:
        """Earliest lane busy-until strictly after ``release_ms``.

        The natural re-queue target for a request whose predicted completion
        misses its deadline: the fleet's state cannot change before some lane
        frees up.  ``None`` means no lane is busy past ``release_ms`` — the
        fleet is idle, so waiting cannot improve the prediction.
        """
        later = self._free_ms[self._free_ms > release_ms]
        return float(later.min()) if later.size else None

    def admission_floor(self, release_ms: float, max_inflight: Optional[int]) -> float:
        """Earliest time a request released at ``release_ms`` may be admitted.

        With a cluster-wide cap of ``max_inflight`` concurrent requests, a
        new request waits until enough of the committed requests still in
        flight at its release (completion after ``release_ms``) have
        finished.  ``None`` disables the gate.
        """
        if max_inflight is None:
            return release_ms
        live = self._completions[bisect_right(self._completions, release_ms):]
        if len(live) < max_inflight:
            return release_ms
        return live[len(live) - max_inflight]

    def prune_completions(self, watermark_ms: float) -> None:
        """Drop completions at/below ``watermark_ms``.

        Safe once no future release can precede the watermark: the gate only
        counts completions strictly after a release time.
        """
        cut = bisect_right(self._completions, watermark_ms)
        if cut:
            del self._completions[:cut]

    # ------------------------------------------------------------------ #
    def commit(self, release_ms: float, outcome: ContendedOutcome) -> None:
        """Apply one scheduled request's lane usage to the shared state."""
        for index, (key, rel_end, busy, wait, jobs) in enumerate(
            zip(
                self.lane_keys,
                outcome.lane_end_rel,
                outcome.lane_busy_ms,
                outcome.lane_wait_ms,
                outcome.lane_jobs,
            )
        ):
            if jobs:
                lane = self.lanes.lane(*key)
                # max(): a full schedule always ends at/after the lane's prior
                # free time, but a crash-truncated outcome may be cut before
                # it — occupancy committed by earlier requests must stand.
                lane.free_at = max(lane.free_at, release_ms + rel_end)
                lane.busy_ms += busy
                lane.jobs += jobs
                self._free_ms[index] = lane.free_at
                if self._windows is not None and busy > 0:
                    # Busy mass is attributed to the trailing interval
                    # [end - busy, end]: within-request gaps on a lane are
                    # compacted against its final busy-until, so windowed
                    # placement is approximate but the series sums back to
                    # the lane's busy total by construction.
                    end_ms = release_ms + rel_end
                    self._windows.add_lane(
                        f"{key[1]}_busy", key[0], end_ms - busy, end_ms
                    )
            if wait:
                self.wait_ms[key] = self.wait_ms.get(key, 0.0) + wait
                if self._windows is not None:
                    self._windows.add_lane(
                        f"{key[1]}_wait", key[0], release_ms, release_ms + wait
                    )
        self.requests += 1
        if outcome.contended:
            self.contended_requests += 1
        self.gate_wait_ms += outcome.gate_wait_ms
        if self._windows is not None:
            self._windows.add_request(release_ms, outcome.latency_ms)
        insort(self._completions, release_ms + outcome.latency_ms)

    # ------------------------------------------------------------------ #
    def load_report(
        self, makespan_ms: float, device_ids: Optional[Sequence[str]] = None
    ) -> FleetLoadReport:
        """Snapshot the cumulative lane accounting as a report."""
        n = self.num_devices
        ids = list(device_ids) if device_ids is not None else [str(j) for j in range(n)]
        if len(ids) != n:
            raise ValueError(f"expected {n} device ids, got {len(ids)}")

        def per_role(role: str, field: str) -> np.ndarray:
            if field == "wait":
                return np.array([self.wait_ms.get((j, role), 0.0) for j in range(n)])
            lanes = [self.lanes.lane(j, role) for j in range(n)]
            if field == "busy":
                return np.array([lane.busy_ms for lane in lanes])
            return np.array([lane.jobs for lane in lanes], dtype=np.int64)

        return FleetLoadReport(
            device_ids=ids,
            compute_busy_ms=per_role("compute", "busy"),
            send_busy_ms=per_role("send", "busy"),
            recv_busy_ms=per_role("recv", "busy"),
            compute_wait_ms=per_role("compute", "wait"),
            send_wait_ms=per_role("send", "wait"),
            recv_wait_ms=per_role("recv", "wait"),
            compute_jobs=per_role("compute", "jobs"),
            send_jobs=per_role("send", "jobs"),
            recv_jobs=per_role("recv", "jobs"),
            makespan_ms=float(makespan_ms),
            requests=self.requests,
            contended_requests=self.contended_requests,
            gate_wait_ms=self.gate_wait_ms,
            series=self._windows.series() if self._windows is not None else None,
        )


class ContentionAwareEvaluator:
    """Schedules plans against a :class:`SharedFleetState`.

    Parameters
    ----------
    evaluator:
        The cluster-bound evaluator whose devices/network/oracle define the
        world.  Contended scheduling is inherently sequential, so it walks
        one plan at a time: a :class:`BatchPlanEvaluator`'s compiled plans,
        or a plain :class:`PlanEvaluator`'s dict walk (bit-identical).
    fleet:
        Shared lane state; a fresh one is created when omitted.
    max_inflight:
        Cluster-wide cap on concurrently in-flight requests (admission
        gate); ``None`` disables it.
    memoize:
        Cache contended schedules in an LRU keyed on ``(model, plan
        structure, network state, gate, lane residuals)``.  A hit replays
        the exact floats of the original walk, so memoization is
        behaviour-preserving; the serving reference loop disables it to
        stay the semantics oracle.  Over a :class:`BatchPlanEvaluator` the
        LRU also keeps the idle-fleet latencies of :meth:`predict`'s
        admission bound.
    memo:
        An externally-owned :class:`~repro.utils.cache.LRUCache` to use
        instead of a private one (implies ``memoize``).  The capacity
        planner shares one memo across probe runs at the same fleet size so
        repeat probes refine over the already-memoized contended walk
        instead of re-evaluating from scratch.
    """

    def __init__(
        self,
        evaluator: PlanEvaluator,
        fleet: Optional[SharedFleetState] = None,
        max_inflight: Optional[int] = None,
        memoize: bool = True,
        cache_size: int = 4096,
        memo: Optional[LRUCache] = None,
    ) -> None:
        if not isinstance(evaluator, PlanEvaluator):
            raise TypeError(
                "contention-aware evaluation needs a PlanEvaluator; "
                f"got {type(evaluator).__name__}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1 (or None), got {max_inflight}")
        self.devices = evaluator.devices
        self.network = evaluator.network
        self.fleet = fleet or SharedFleetState(len(evaluator.devices))
        if self.fleet.num_devices != len(evaluator.devices):
            raise ValueError(
                f"fleet covers {self.fleet.num_devices} devices, evaluator has "
                f"{len(evaluator.devices)}"
            )
        self.max_inflight = max_inflight
        self._walk = _ContendedWalk(
            evaluator.devices,
            evaluator.network,
            compute_oracle=evaluator.oracle,
            input_bytes_per_element=evaluator.input_bytes_per_element,
        )
        self._compiler = evaluator if isinstance(evaluator, BatchPlanEvaluator) else None
        if memo is not None:
            self._memo: Optional[LRUCache] = memo
        else:
            self._memo = LRUCache(cache_size) if memoize else None
        self._model_tokens: Dict[int, int] = {}
        self._model_refs: Dict[int, ModelSpec] = {}
        # Plan signatures cached by object identity (plans are immutable) —
        # the memo key is rebuilt per dispatch and this is its only
        # non-trivial component.  Entries hold the plan itself, so a hit is
        # checked by identity against a recycled id; the LRU bounds what
        # replans pin.
        self._plan_sigs = LRUCache(cache_size)
        self.evaluations = 0

    # ------------------------------------------------------------------ #
    @property
    def memo_hits(self) -> int:
        return self._memo.hits if self._memo is not None else 0

    def _model_token(self, model: ModelSpec) -> int:
        key = id(model)
        token = self._model_tokens.get(key)
        if token is None:
            token = len(self._model_tokens)
            self._model_tokens[key] = token
            self._model_refs[key] = model
        return token

    # ------------------------------------------------------------------ #
    def _schedule(
        self,
        plan: DistributionPlan,
        t_seconds: float,
        rates: Optional[Tuple[float, ...]],
        residuals: Tuple[float, ...],
        gate_rel_ms: float,
    ) -> Tuple[EvaluationResult, ContendedOutcome]:
        """One walk over residual-seeded lanes (release-relative).

        ``rates`` is :meth:`_rates` at ``t_seconds``: the compiled walk reads
        it, the dict walk samples the links itself.
        """
        walk = self._walk
        state = walk.new_state()
        lanes = state.lanes
        for key, residual in zip(self.fleet.lane_keys, residuals):
            lanes.lane(*key).free_at = residual
        # The admission gate holds the requester's first transmission: the
        # image may not be sent before the gate opens.
        lanes.lane(REQUESTER, "send").free_at = gate_rel_ms
        if self._compiler is not None:
            result = self._compiler.compiled_plan(plan).run(
                state, rates, plan.method, record_wait=lanes.add_wait
            )
        else:
            for assignment in plan.assignments:
                walk.process_volume(state, assignment, t_seconds)
            result = walk.finalize(state, plan, t_seconds)
        ends: List[float] = []
        busy: List[float] = []
        waits: List[float] = []
        jobs: List[int] = []
        for key in self.fleet.lane_keys:
            lane = lanes.lane(*key)
            ends.append(lane.free_at)
            busy.append(lane.busy_ms)
            jobs.append(lane.jobs)
            waits.append(lanes.wait_ms.get(key, 0.0))
        outcome = ContendedOutcome(
            latency_ms=result.end_to_end_ms,
            lane_end_rel=tuple(ends),
            lane_busy_ms=tuple(busy),
            lane_wait_ms=tuple(waits),
            lane_jobs=tuple(jobs),
            gate_wait_ms=gate_rel_ms,
            contended=gate_rel_ms > 0.0 or any(r > 0.0 for r in residuals),
        )
        self.evaluations += 1
        return result, outcome

    def _plan_signature(self, plan: DistributionPlan) -> Tuple:
        entry = self._plan_sigs.get(id(plan))
        if entry is None or entry[0] is not plan:
            entry = (plan, plan_signature(plan))
            self._plan_sigs.put(id(plan), entry)
        return entry[1]

    def _floors(self, release_ms: float) -> Tuple[Tuple[float, ...], float]:
        residuals = self.fleet.residuals(release_ms)
        floor = self.fleet.admission_floor(release_ms, self.max_inflight)
        return residuals, max(0.0, floor - release_ms)

    def _dispatch_key(
        self,
        plan: DistributionPlan,
        rates: Tuple[float, ...],
        residuals: Tuple[float, ...],
        gate_rel: float,
    ) -> Tuple:
        return (self._model_token(plan.model), self._plan_signature(plan), rates, gate_rel, residuals)

    def _rates(self, t_seconds: float) -> Optional[Tuple[float, ...]]:
        """The network-state signature, when the memo key or the walk needs it."""
        if self._memo is None and self._compiler is None:
            return None
        return network_state_signature(self.network, t_seconds)

    def _idle_latency_ms(
        self, plan: DistributionPlan, key: Tuple, t_seconds: float, rates: Tuple[float, ...]
    ) -> float:
        """The plan's idle-fleet latency, kept in the memo beside its schedules.

        The entry's key is the schedule key without gate and residuals, so a
        shared memo spares warm runs the evaluation too; ``peek`` leaves the
        hit count to schedule replays.
        """
        idle_key = key[:3]
        latency_ms = self._memo.peek(idle_key)
        if latency_ms is None:
            latency_ms = self._compiler.evaluate_plans([plan], t_seconds, rates=rates)[0].end_to_end_ms
            self._memo.put(idle_key, latency_ms)
        return latency_ms

    # ------------------------------------------------------------------ #
    def predict(
        self,
        plan: DistributionPlan,
        release_ms: float,
        t_seconds: float = 0.0,
        misses: Optional[Callable[[float], bool]] = None,
    ) -> Optional[ContendedOutcome]:
        """Predict one request's contended outcome *without* committing it.

        The prediction is exact, not estimated: it is the very schedule
        :meth:`evaluate` would commit, computed against the fleet's current
        residuals (memo hit or fresh scalar walk).  Predictive admission
        (:mod:`repro.serving.control`) decides on this outcome and only
        :meth:`commit`\\ s it when the request is admitted, so a denied
        request leaves the shared state untouched.

        ``misses`` is the admission test on a latency.  On a memo miss with
        the fleet contended, a memoizing evaluator over a
        :class:`BatchPlanEvaluator` first applies it to the plan's cached
        idle-fleet latency and returns ``None``
        without walking when the idle fleet already misses: lane residuals
        and the gate enter the walk only through ``max``, and ``max``, ``+``
        and ``*``/``/`` by a positive constant are monotone under IEEE
        rounding, so the contended latency is never below the idle one and
        the walk could not change the verdict.
        """
        if plan.num_devices != self.fleet.num_devices:
            raise ValueError(
                f"plan covers {plan.num_devices} devices, fleet has "
                f"{self.fleet.num_devices}"
            )
        residuals, gate_rel = self._floors(release_ms)
        rates = self._rates(t_seconds)
        outcome: Optional[ContendedOutcome] = None
        if self._memo is not None:
            key = self._dispatch_key(plan, rates, residuals, gate_rel)
            outcome = self._memo.get(key)
        if outcome is None:
            # On an idle fleet the walk *is* the idle walk: no bound to take.
            if (
                misses is not None
                and self._memo is not None
                and self._compiler is not None
                and (gate_rel > 0.0 or any(r > 0.0 for r in residuals))
                and misses(self._idle_latency_ms(plan, key, t_seconds, rates))
            ):
                return None
            _, outcome = self._schedule(plan, t_seconds, rates, residuals, gate_rel)
            if self._memo is not None:
                self._memo.put(key, outcome)
        return outcome

    def commit(self, outcome: ContendedOutcome, release_ms: float) -> None:
        """Apply a predicted outcome's lane usage to the shared fleet."""
        self.fleet.commit(release_ms, outcome)

    def evaluate(
        self, plan: DistributionPlan, release_ms: float, t_seconds: float = 0.0
    ) -> ContendedOutcome:
        """Schedule one request against the fleet and commit its lane usage.

        Exactly :meth:`predict` followed by :meth:`commit`.  Returns the
        request's :class:`ContendedOutcome`; its ``latency_ms`` is the
        contended makespan (relative to ``release_ms``).  Requests must be
        evaluated in the dispatcher's canonical order — the shared state
        makes results order-dependent by design.
        """
        outcome = self.predict(plan, release_ms, t_seconds)
        self.fleet.commit(release_ms, outcome)
        return outcome

    def evaluate_contended(
        self, plan: DistributionPlan, release_ms: float = 0.0, t_seconds: float = 0.0
    ) -> Tuple[EvaluationResult, ContendedOutcome]:
        """Full-detail contended evaluation (always a fresh walk; commits).

        Returns the complete :class:`EvaluationResult` (times relative to
        the release instant) together with the outcome carrying the
        per-lane queueing-delay breakdown.
        """
        if plan.num_devices != self.fleet.num_devices:
            raise ValueError(
                f"plan covers {plan.num_devices} devices, fleet has "
                f"{self.fleet.num_devices}"
            )
        residuals, gate_rel = self._floors(release_ms)
        rates = self._rates(t_seconds)
        result, outcome = self._schedule(plan, t_seconds, rates, residuals, gate_rel)
        if self._memo is not None:
            self._memo.put(self._dispatch_key(plan, rates, residuals, gate_rel), outcome)
        self.fleet.commit(release_ms, outcome)
        return result, outcome


__all__ = [
    "LANE_ROLES",
    "fleet_lane_keys",
    "ContendedOutcome",
    "truncated_outcome",
    "FleetLoadReport",
    "FleetLoadSeries",
    "SharedFleetState",
    "ContentionAwareEvaluator",
]
