"""Predictive serving control plane: admission, autoscaling, capacity planning.

:class:`~repro.runtime.contention.ContentionAwareEvaluator` computes a
request's contended makespan *before* the request runs — an exact schedule,
not an estimate.  This module is the layer that finally consumes that
prediction (see ``docs/architecture.md`` for the subsystem map and
``docs/operations.md`` for the operator-facing walkthroughs):

* **Deny-at-admission** — ``ClusterPolicy(admission="predictive")`` makes the
  contended serving loop predict each request's completion at release time
  and deny (or re-queue, ``on_predicted_miss``) requests whose prediction
  already misses the SLO deadline.  The decision logic lives inside
  :meth:`~repro.serving.simulator.ServingSimulator._run_contended` — it must
  run identically in the reference and batched loops to preserve their
  bit-parity — and its accounting (``num_denied`` per tenant) surfaces here
  via :func:`effective_miss_rate`.
* :class:`FleetAutoscaler` — grows/shrinks the device fleet between fixed
  windows of a serving horizon, driven by measured compute utilisation (the
  :class:`~repro.runtime.contention.FleetLoadSeries` run totals per window)
  and, when calibrated from a ``serving_load_curve`` knee
  (:func:`repro.experiments.figures.load_curve_knee`), by per-device
  capacity.
* :class:`CapacityPlanner` — binary-searches the minimum fleet size whose
  serving run meets a target miss rate for a given traffic mix, memoizing
  probe results so the search costs at most ``ceil(log2(range)) + 2`` runs
  against an exhaustive sweep's ``range``.  Probe runs at one fleet size may
  share a contended-schedule memo (``ServingSimulator.run(schedule_memo=…)``)
  and warm per-tenant plan caches, refining incrementally over the memoized
  contended walk instead of re-evaluating from scratch.

The module deliberately depends only on *callables* that produce
:class:`~repro.serving.simulator.ServingReport` objects — building tenants,
plans and evaluators for a given fleet size is the caller's job (the CLI
wires :class:`~repro.experiments.harness.ExperimentHarness` in, keeping its
warm per-tenant plan caches across probes) — so the control plane composes
with any serving front end and never imports the experiments layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.serving.simulator import ServingReport
from repro.utils.fold import fold_sum

#: Builds/serves one probe: fleet size -> the run's report.
ProbeRunner = Callable[[int], ServingReport]

#: Serves one autoscaler window: (fleet size, window index) -> report.
WindowRunner = Callable[[int, int], ServingReport]


def effective_miss_rate(report: ServingReport) -> float:
    """Miss fraction over the *offered* SLO-bound load.

    Predictive admission converts would-be deadline misses into denials, so
    judging a fleet by ``deadline_miss_rate`` alone (misses among completed
    requests) would let a tiny fleet look perfect by denying almost
    everything.  Fleet churn (:mod:`repro.runtime.faults`) adds two more
    ways to lose a request without a recorded miss: a crash can *abandon*
    it after the retry budget, and a degradation window can *shed* it at
    arrival.  All three count exactly like a miss: the fraction is
    ``(missed + denied + abandoned + shed) / (completed + denied +
    abandoned + shed)`` over tenants that declare an SLO — identical to
    ``deadline_miss_rate`` when nothing was denied, abandoned or shed.
    """
    missed = lost = completed = 0
    for tenant in report.tenants:
        if tenant.slo is not None:
            missed += int(tenant.deadline_missed.sum())
            lost += tenant.num_denied + tenant.num_abandoned + tenant.num_shed
            completed += tenant.num_completed
    total = completed + lost
    return (missed + lost) / total if total else 0.0


# ---------------------------------------------------------------------- #
# capacity planning
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CapacityPlanConfig:
    """Search space and target of one capacity-planning run."""

    min_devices: int
    max_devices: int
    target_miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ValueError(f"min_devices must be >= 1, got {self.min_devices}")
        if self.max_devices < self.min_devices:
            raise ValueError(
                f"max_devices must be >= min_devices, got "
                f"{self.max_devices} < {self.min_devices}"
            )
        if not 0.0 <= self.target_miss_rate <= 1.0:
            raise ValueError(
                f"target_miss_rate must be in [0, 1], got {self.target_miss_rate}"
            )

    @property
    def span(self) -> int:
        return self.max_devices - self.min_devices + 1

    @property
    def max_probes(self) -> int:
        """Probe budget of the binary search: ``ceil(log2(span)) + 2``.

        One probe may bound each halving of the candidate range, plus the
        endpoint feasibility checks.
        """
        return int(math.ceil(math.log2(self.span))) + 2 if self.span > 1 else 1


@dataclass(frozen=True)
class CapacityProbe:
    """Outcome of serving the traffic mix on one candidate fleet size."""

    num_devices: int
    miss_rate: float
    feasible: bool
    completed: int
    denied: int
    throughput_rps: float

    def to_dict(self) -> Dict:
        return {
            "num_devices": int(self.num_devices),
            "miss_rate": float(self.miss_rate),
            "feasible": bool(self.feasible),
            "completed": int(self.completed),
            "denied": int(self.denied),
            "throughput_rps": float(self.throughput_rps),
        }


@dataclass
class CapacityPlan:
    """Result of a capacity-planning search."""

    config: CapacityPlanConfig
    probes: List[CapacityProbe] = field(default_factory=list)
    min_feasible_devices: Optional[int] = None
    strategy: str = "binary"

    @property
    def num_probe_runs(self) -> int:
        """Serving runs actually executed (memoized repeats excluded)."""
        return len(self.probes)

    def to_dict(self) -> Dict:
        return {
            "min_devices": int(self.config.min_devices),
            "max_devices": int(self.config.max_devices),
            "target_miss_rate": float(self.config.target_miss_rate),
            "strategy": self.strategy,
            "min_feasible_devices": (
                None
                if self.min_feasible_devices is None
                else int(self.min_feasible_devices)
            ),
            "num_probe_runs": self.num_probe_runs,
            "probes": [probe.to_dict() for probe in self.probes],
        }


class CapacityPlanner:
    """Finds the minimum fleet size meeting a target miss rate.

    ``probe_runner(n)`` must serve the *same* traffic mix on a fleet of
    ``n`` devices and return the run's report; the planner judges each run
    by :func:`effective_miss_rate` (denials count as misses) and memoizes
    probes by fleet size, so :meth:`plan` after :meth:`exhaustive` (or a
    repeated :meth:`plan`) re-runs nothing.

    The binary search assumes feasibility is monotone in the fleet size —
    more devices never push the miss rate above the target.  That holds for
    the seeded ``gen:`` scenarios the CI gate checks (capacity grows with
    the fleet while the offered load stays fixed); :meth:`exhaustive` is the
    assumption's oracle.
    """

    def __init__(
        self,
        probe_runner: ProbeRunner,
        config: CapacityPlanConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.probe_runner = probe_runner
        self.config = config
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._memo: Dict[int, CapacityProbe] = {}
        self.probe_runs = 0

    def probe(self, num_devices: int) -> CapacityProbe:
        """Serve the mix on ``num_devices`` (memoized by fleet size)."""
        cached = self._memo.get(num_devices)
        if cached is not None:
            return cached
        if not self.config.min_devices <= num_devices <= self.config.max_devices:
            raise ValueError(
                f"num_devices {num_devices} outside "
                f"[{self.config.min_devices}, {self.config.max_devices}]"
            )
        report = self.probe_runner(num_devices)
        miss = effective_miss_rate(report)
        probe = CapacityProbe(
            num_devices=num_devices,
            miss_rate=miss,
            feasible=miss <= self.config.target_miss_rate,
            completed=report.total_completed,
            denied=report.total_denied,
            throughput_rps=report.throughput_rps,
        )
        self._memo[num_devices] = probe
        if self.tracer.enabled:
            # ts = probe ordinal: every probe replays the same horizon, so
            # the probe sequence — not simulated time — is the timeline.
            self.tracer.instant(
                float(self.probe_runs),
                "control:capacity-planner",
                "control",
                "capacity_probe",
                num_devices=num_devices,
                miss_rate=miss,
                feasible=probe.feasible,
                throughput_rps=probe.throughput_rps,
            )
        self.probe_runs += 1
        return probe

    def plan(self) -> CapacityPlan:
        """Binary search for the smallest feasible fleet size."""
        cfg = self.config
        plan = CapacityPlan(config=cfg, strategy="binary")
        top = self.probe(cfg.max_devices)
        plan.probes.append(top)
        if not top.feasible:
            # Even the largest allowed fleet misses the target.
            return plan
        lo, hi = cfg.min_devices, cfg.max_devices
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self.probe(mid)
            plan.probes.append(probe)
            if probe.feasible:
                hi = mid
            else:
                lo = mid + 1
        plan.min_feasible_devices = hi
        return plan

    def exhaustive(self) -> CapacityPlan:
        """Ascending sweep — the oracle the CI gate compares :meth:`plan` to."""
        cfg = self.config
        plan = CapacityPlan(config=cfg, strategy="exhaustive")
        for n in range(cfg.min_devices, cfg.max_devices + 1):
            probe = self.probe(n)
            plan.probes.append(probe)
            if probe.feasible:
                plan.min_feasible_devices = n
                break
        return plan


# ---------------------------------------------------------------------- #
# autoscaling
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the between-windows fleet autoscaler.

    Without a capacity calibration the scaler walks the fleet size by
    ``step`` whenever the measured mean compute utilisation leaves the
    ``[low_utilization, high_utilization]`` band (or the window's effective
    miss rate exceeds ``target_miss_rate``).  With
    ``capacity_per_device_rps`` set — typically from a
    ``serving_load_curve`` knee via :meth:`from_knee` — the scaler instead
    jumps straight to ``ceil(window arrival rate / capacity)`` devices.

    ``trigger="burn_rate"`` swaps the utilisation band for the SLO burn
    signal of :mod:`repro.obs.slo`: each window's effective miss rate is
    normalised by ``target_miss_rate`` into a burn rate (1.0 = consuming
    error budget exactly at the allowed rate); the scaler grows when both
    the window burn (fast) and the trailing-``burn_windows`` mean (slow)
    reach ``burn_threshold``, and shrinks only when both fall below half
    the threshold *and* utilisation sits under ``low_utilization`` — the
    same fast+slow hysteresis the alerting rules use, so paging and
    scaling react to one signal.  Requires a positive ``target_miss_rate``
    (a zero budget has no finite burn) and is exclusive with the capacity
    calibration.
    """

    min_devices: int
    max_devices: int
    window_s: float
    low_utilization: float = 0.3
    high_utilization: float = 0.8
    step: int = 1
    target_miss_rate: float = 0.0
    capacity_per_device_rps: Optional[float] = None
    trigger: str = "utilization"
    burn_threshold: float = 1.0
    burn_windows: int = 4

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ValueError(f"min_devices must be >= 1, got {self.min_devices}")
        if self.max_devices < self.min_devices:
            raise ValueError(
                f"max_devices must be >= min_devices, got "
                f"{self.max_devices} < {self.min_devices}"
            )
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError(f"window_s must be > 0 and finite, got {self.window_s}")
        if not 0.0 <= self.low_utilization <= self.high_utilization <= 1.0:
            raise ValueError(
                "need 0 <= low_utilization <= high_utilization <= 1, got "
                f"{self.low_utilization} / {self.high_utilization}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if not 0.0 <= self.target_miss_rate <= 1.0:
            raise ValueError(
                f"target_miss_rate must be in [0, 1], got {self.target_miss_rate}"
            )
        if self.capacity_per_device_rps is not None and not (
            math.isfinite(self.capacity_per_device_rps) and self.capacity_per_device_rps > 0
        ):
            raise ValueError(
                f"capacity_per_device_rps must be > 0 and finite (or None), got "
                f"{self.capacity_per_device_rps}"
            )
        if self.trigger not in ("utilization", "burn_rate"):
            raise ValueError(
                f"trigger must be 'utilization' or 'burn_rate', got {self.trigger!r}"
            )
        if not (math.isfinite(self.burn_threshold) and self.burn_threshold > 0):
            raise ValueError(
                f"burn_threshold must be > 0 and finite, got {self.burn_threshold}"
            )
        if self.burn_windows < 1:
            raise ValueError(f"burn_windows must be >= 1, got {self.burn_windows}")
        if self.trigger == "burn_rate":
            if self.target_miss_rate <= 0.0:
                raise ValueError(
                    "trigger='burn_rate' needs a positive target_miss_rate "
                    "(a zero error budget has no finite burn rate)"
                )
            if self.capacity_per_device_rps is not None:
                raise ValueError(
                    "trigger='burn_rate' is exclusive with "
                    "capacity_per_device_rps — pick one scaling signal"
                )

    @classmethod
    def from_knee(
        cls,
        knee_rps: float,
        knee_devices: int,
        **kwargs,
    ) -> "AutoscalerConfig":
        """Calibrate per-device capacity from a load-curve knee.

        ``knee_rps`` is the highest offered rate a probe fleet of
        ``knee_devices`` served within the miss target (see
        :func:`repro.experiments.figures.load_curve_knee`); capacity per
        device is its quotient.
        """
        if knee_rps <= 0:
            raise ValueError(f"knee_rps must be > 0, got {knee_rps}")
        if knee_devices < 1:
            raise ValueError(f"knee_devices must be >= 1, got {knee_devices}")
        return cls(capacity_per_device_rps=knee_rps / knee_devices, **kwargs)


@dataclass(frozen=True)
class AutoscaleWindow:
    """One autoscaler window: what was measured and what was decided."""

    index: int
    start_s: float
    num_devices: int
    arrivals: int
    completed: int
    denied: int
    miss_rate: float
    utilization: float
    decision: str  # "grow" | "shrink" | "hold"
    next_devices: int
    fast_burn: float = 0.0  # window burn (miss / target); 0 unless burn_rate
    slow_burn: float = 0.0  # trailing-window mean burn

    def to_dict(self) -> Dict:
        return {
            "index": int(self.index),
            "start_s": float(self.start_s),
            "num_devices": int(self.num_devices),
            "arrivals": int(self.arrivals),
            "completed": int(self.completed),
            "denied": int(self.denied),
            "miss_rate": float(self.miss_rate),
            "utilization": float(self.utilization),
            "decision": self.decision,
            "next_devices": int(self.next_devices),
            "fast_burn": float(self.fast_burn),
            "slow_burn": float(self.slow_burn),
        }


@dataclass
class AutoscaleReport:
    """Outcome of one autoscaled serving horizon."""

    config: AutoscalerConfig
    windows: List[AutoscaleWindow] = field(default_factory=list)

    @property
    def final_devices(self) -> int:
        return self.windows[-1].next_devices if self.windows else self.config.min_devices

    @property
    def device_trajectory(self) -> List[int]:
        return [w.num_devices for w in self.windows]

    def to_dict(self) -> Dict:
        return {
            "window_s": float(self.config.window_s),
            "min_devices": int(self.config.min_devices),
            "max_devices": int(self.config.max_devices),
            "low_utilization": float(self.config.low_utilization),
            "high_utilization": float(self.config.high_utilization),
            "capacity_per_device_rps": (
                None
                if self.config.capacity_per_device_rps is None
                else float(self.config.capacity_per_device_rps)
            ),
            "trigger": self.config.trigger,
            "burn_threshold": float(self.config.burn_threshold),
            "burn_windows": int(self.config.burn_windows),
            "final_devices": int(self.final_devices),
            "device_trajectory": [int(n) for n in self.device_trajectory],
            "windows": [w.to_dict() for w in self.windows],
        }


class FleetAutoscaler:
    """Resizes the fleet between fixed windows of a serving horizon.

    ``window_runner(n, w)`` must serve window ``w``'s slice of the arrival
    trace on a fleet of ``n`` devices (the CLI builds it from one
    pre-generated trace split into :class:`~repro.serving.traffic.TraceArrivals`
    segments, re-planning tenants per fleet size through warm plan caches).
    After each window the scaler measures mean compute utilisation —
    ``compute busy / window`` from the run's fleet report — plus the
    window's effective miss rate, and decides the next window's fleet size.
    """

    def __init__(
        self,
        window_runner: WindowRunner,
        config: AutoscalerConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.window_runner = window_runner
        self.config = config
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Burn-rate trigger state: per-run window burn history (fast burns),
        # plus the burns behind the most recent decide() for reporting.
        self._burn_history: List[float] = []
        self._last_burns: Tuple[float, float] = (0.0, 0.0)

    # ------------------------------------------------------------------ #
    def _utilization(self, report: ServingReport) -> float:
        if report.fleet is None:
            return 0.0
        busy = report.fleet.compute_busy_ms
        if busy.size == 0:
            return 0.0
        return float(busy.mean()) / (self.config.window_s * 1000.0)

    def _clamp(self, n: int) -> int:
        return max(self.config.min_devices, min(self.config.max_devices, n))

    def decide(self, report: ServingReport, num_devices: int) -> Tuple[str, int]:
        """Next window's fleet size from this window's measurements.

        A window served under fleet churn reports its surviving fleet
        (``report.faults.live_at_end``); the decision then steps from that
        *post-churn* size, so replacing crashed devices registers as growth
        and a shrink never assumes capacity the crash already took.
        """
        cfg = self.config
        observed = num_devices
        if report.faults is not None:
            observed = min(observed, int(report.faults.live_at_end))
        utilization = self._utilization(report)
        miss = effective_miss_rate(report)
        self._last_burns = (0.0, 0.0)
        if cfg.trigger == "burn_rate":
            fast = miss / cfg.target_miss_rate
            self._burn_history.append(fast)
            trailing = self._burn_history[-cfg.burn_windows:]
            slow = fold_sum(trailing) / len(trailing)
            self._last_burns = (fast, slow)
            if fast >= cfg.burn_threshold and slow >= cfg.burn_threshold:
                grown = self._clamp(observed + cfg.step)
                return ("grow", grown) if grown != observed else ("hold", observed)
            if (
                fast < cfg.burn_threshold / 2.0
                and slow < cfg.burn_threshold / 2.0
                and utilization < cfg.low_utilization
            ):
                shrunk = self._clamp(observed - cfg.step)
                return ("shrink", shrunk) if shrunk != observed else ("hold", observed)
            return "hold", observed
        if cfg.capacity_per_device_rps is not None:
            arrival_rps = report.total_arrivals / cfg.window_s
            desired = self._clamp(
                int(math.ceil(arrival_rps / cfg.capacity_per_device_rps))
                if arrival_rps > 0
                else cfg.min_devices
            )
            if desired > observed:
                return "grow", desired
            if desired < observed:
                return "shrink", desired
            return "hold", observed
        if utilization > cfg.high_utilization or miss > cfg.target_miss_rate:
            grown = self._clamp(observed + cfg.step)
            return ("grow", grown) if grown != observed else ("hold", observed)
        if utilization < cfg.low_utilization and miss <= cfg.target_miss_rate:
            shrunk = self._clamp(observed - cfg.step)
            return ("shrink", shrunk) if shrunk != observed else ("hold", observed)
        return "hold", observed

    # ------------------------------------------------------------------ #
    def run(
        self, num_windows: int, initial_devices: Optional[int] = None
    ) -> AutoscaleReport:
        """Serve ``num_windows`` windows, resizing the fleet in between."""
        if num_windows < 1:
            raise ValueError(f"num_windows must be >= 1, got {num_windows}")
        n = self._clamp(
            initial_devices if initial_devices is not None else self.config.min_devices
        )
        self._burn_history = []
        result = AutoscaleReport(config=self.config)
        for w in range(num_windows):
            report = self.window_runner(n, w)
            decision, next_n = self.decide(report, n)
            fast_burn, slow_burn = self._last_burns
            window = AutoscaleWindow(
                index=w,
                start_s=w * self.config.window_s,
                num_devices=n,
                arrivals=report.total_arrivals,
                completed=report.total_completed,
                denied=report.total_denied,
                miss_rate=effective_miss_rate(report),
                utilization=self._utilization(report),
                decision=decision,
                next_devices=next_n,
                fast_burn=fast_burn,
                slow_burn=slow_burn,
            )
            result.windows.append(window)
            if self.tracer.enabled:
                args = {
                    "num_devices": window.num_devices,
                    "decision": window.decision,
                    "next_devices": window.next_devices,
                    "miss_rate": window.miss_rate,
                    "utilization": window.utilization,
                }
                if self.config.trigger == "burn_rate":
                    args["fast_burn"] = window.fast_burn
                    args["slow_burn"] = window.slow_burn
                self.tracer.span(
                    window.start_s * 1000.0,
                    self.config.window_s * 1000.0,
                    "control:autoscaler",
                    "control",
                    "autoscale_window",
                    **args,
                )
            n = next_n
        return result


__all__ = [
    "AutoscaleReport",
    "AutoscaleWindow",
    "AutoscalerConfig",
    "CapacityPlan",
    "CapacityPlanConfig",
    "CapacityPlanner",
    "CapacityProbe",
    "FleetAutoscaler",
    "ProbeRunner",
    "WindowRunner",
    "effective_miss_rate",
]
