"""Experiment harness: run any method on any scenario and report IPS.

The harness owns the knobs that trade fidelity for runtime (OSDS episode
count, LC-PSS random-split count, profile granularity, streamed image count)
so that the same figure-generation code can run in a "fast" configuration on
a laptop and in the paper-scale configuration when time allows.  Plans are
cached per (method, scenario, model) within a harness instance, because
several figures share cells (e.g. Fig. 7's DB @ 50 Mbps column reappears in
Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines import BASELINE_REGISTRY
from repro.core.distredge import DistrEdge, DistrEdgeConfig
from repro.core.osds import OSDSConfig
from repro.devices.profiler import LatencyProfiler
from repro.devices.profiles import TabularProfile
from repro.devices.specs import DeviceInstance
from repro.experiments.scenarios import (
    GENERATOR_PREFIX,
    Scenario,
    override_generator_spec,
    resolve_scenario,
)
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.graph import ModelSpec
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import EvaluationResult
from repro.runtime.faults import (
    ChurnSpec,
    DegradationPolicy,
    FaultTrace,
    RetryPolicy,
)
from repro.runtime.oracles import profiles_by_device
from repro.runtime.plan import DistributionPlan
from repro.runtime.streaming import StreamingSimulator
from repro.serving.dispatch import ClusterPolicy
from repro.serving.simulator import ServingReport, ServingSimulator
from repro.serving.tenants import SLO, TenantSpec
from repro.serving.traffic import ArrivalProcess, TraceArrivals, resolve_traffic
from repro.utils.cache import LRUCache

#: Canonical method order used in the paper's bar charts.
ALL_METHODS: Tuple[str, ...] = (
    "coedge",
    "modnn",
    "mednn",
    "deepthings",
    "deeperthings",
    "aofl",
    "distredge",
    "offload",
)


@dataclass
class HarnessConfig:
    """Runtime/fidelity knobs of the experiment harness."""

    #: OSDS training episodes (paper: 4000; fast default keeps benches quick).
    osds_episodes: int = 150
    #: |Rr_s| for LC-PSS (paper: 100).
    num_random_splits: int = 30
    #: LC-PSS trade-off coefficient (paper: 0.75).
    alpha: float = 0.75
    #: Use per-device-type latency profiles for planning (True) or let the
    #: planners query the ground-truth latency model directly (False).
    use_profiles: bool = False
    #: Measured heights per layer when profiling (None = granularity 1).
    profile_heights_per_layer: Optional[int] = 16
    #: Number of streamed images for IPS measurement; 0 evaluates a single
    #: inference (the two coincide under the paper's one-in-flight protocol
    #: on a stationary network).
    num_images: int = 0
    #: Seed for every stochastic component.
    seed: int = 0
    #: Input image encoding (bytes per input element).
    input_bytes_per_element: float = 0.4
    #: OSDS episodes rolled out in lockstep per vectorised round.  Pure
    #: execution width — results are bit-identical for any value, so this
    #: trades nothing but memory for speed.  Rounds never cross a
    #: policy-refresh boundary: widths beyond ``osds_policy_refresh`` need
    #: that (semantic) knob raised too.
    osds_episode_batch: int = 8
    #: Episodes between OSDS acting-policy snapshot refreshes.  Semantic:
    #: changing it changes which policy explores (and hence the results).
    osds_policy_refresh: int = 8

    def osds_config(self, num_devices: int) -> OSDSConfig:
        """OSDS configuration; sigma^2 is raised for large clusters (paper)."""
        sigma_squared = 1.0 if num_devices > 8 else 0.1
        return OSDSConfig(
            max_episodes=self.osds_episodes,
            sigma_squared=sigma_squared,
            seed=self.seed,
            episode_batch=self.osds_episode_batch,
            policy_refresh=self.osds_policy_refresh,
        )

    def distredge_config(self, num_devices: int) -> DistrEdgeConfig:
        return DistrEdgeConfig(
            alpha=self.alpha,
            num_random_splits=self.num_random_splits,
            osds=self.osds_config(num_devices),
            seed=self.seed,
            input_bytes_per_element=self.input_bytes_per_element,
        )


@dataclass
class MethodResult:
    """IPS and latency of one method on one scenario."""

    method: str
    scenario: str
    model: str
    ips: float
    latency_ms: float
    max_compute_ms: float
    max_transmission_ms: float
    plan: DistributionPlan
    evaluation: EvaluationResult


class ExperimentHarness:
    """Runs distribution methods on scenarios and evaluates the outcome."""

    def __init__(self, config: Optional[HarnessConfig] = None) -> None:
        self.config = config or HarnessConfig()
        self._models: Dict[str, ModelSpec] = {}
        self._profile_cache: Dict[Tuple[str, str], TabularProfile] = {}
        # Result cache keyed on the full (frozen, hashable) Scenario rather
        # than its name: two different scenarios may share a name (the
        # collision ScenarioRegistry guards against), and a result measured
        # on one must never serve the other.
        self._result_cache: Dict[Tuple[str, Scenario, str], MethodResult] = {}
        # Plans cached per (method, scenario, model) so serving load sweeps
        # (several serve_scenario calls on one fleet) plan each tenant once.
        self._plan_cache: Dict[Tuple[str, Scenario, str], DistributionPlan] = {}

    # ------------------------------------------------------------------ #
    def model(self, name: str) -> ModelSpec:
        if name not in self._models:
            self._models[name] = model_zoo.get(name)
        return self._models[name]

    def _profiles_for(
        self, model: ModelSpec, devices: Sequence[DeviceInstance]
    ) -> Optional[List[TabularProfile]]:
        if not self.config.use_profiles:
            return None
        per_type: Dict[str, TabularProfile] = {}
        for device in devices:
            key = (model.name, device.type_name)
            if key not in self._profile_cache:
                profiler = LatencyProfiler(device.dtype, seed=self.config.seed)
                points = profiler.profile_model(
                    model, heights_per_layer=self.config.profile_heights_per_layer
                )
                self._profile_cache[key] = TabularProfile.from_points(points)
            per_type[device.type_name] = self._profile_cache[key]
        return profiles_by_device(devices, per_type)

    def evaluator_for(
        self, devices: Sequence[DeviceInstance], network: NetworkModel
    ) -> BatchPlanEvaluator:
        """Ground-truth evaluator ("real execution") used for reported IPS.

        Routed through the batch path: figure cells that re-evaluate a plan
        another figure already measured (e.g. Fig. 7's DB @ 50 Mbps column in
        Fig. 15) become cache hits, and streamed images on stationary
        networks are evaluated once instead of per image.
        """
        return BatchPlanEvaluator(
            devices, network, input_bytes_per_element=self.config.input_bytes_per_element
        )

    # ------------------------------------------------------------------ #
    def plan_for(
        self,
        method: str,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
    ) -> DistributionPlan:
        """Run one method's planner and return its distribution plan."""
        profiles = self._profiles_for(model, devices)
        if method == "distredge":
            planner = DistrEdge(self.config.distredge_config(len(devices)))
            return planner.plan(model, devices, network, profiles)
        if method in BASELINE_REGISTRY:
            return BASELINE_REGISTRY[method]().plan(model, devices, network, profiles)
        raise KeyError(
            f"unknown method {method!r}; known: distredge, {', '.join(BASELINE_REGISTRY)}"
        )

    def run(
        self,
        method: str,
        scenario: Scenario,
        model_name: str = "vgg16",
        use_cache: bool = True,
    ) -> MethodResult:
        """Plan + evaluate one method on one scenario."""
        cache_key = (method, scenario, model_name)
        if use_cache and cache_key in self._result_cache:
            return self._result_cache[cache_key]
        model = self.model(model_name)
        devices, network = scenario.build(seed=self.config.seed)
        plan = self.plan_for(method, model, devices, network)
        evaluator = self.evaluator_for(devices, network)
        if self.config.num_images > 0:
            simulator = StreamingSimulator(evaluator)
            stream = simulator.run(plan, num_images=self.config.num_images)
            latency_ms = stream.mean_latency_ms
            ips = stream.ips
            evaluation = evaluator.evaluate(plan)
        else:
            evaluation = evaluator.evaluate(plan)
            latency_ms = evaluation.end_to_end_ms
            ips = evaluation.ips
        result = self._assemble_result(
            method, scenario, model_name, plan, evaluation, ips, latency_ms
        )
        if use_cache:
            self._result_cache[cache_key] = result
        return result

    @staticmethod
    def _assemble_result(
        method: str,
        scenario: Scenario,
        model_name: str,
        plan: DistributionPlan,
        evaluation: EvaluationResult,
        ips: float,
        latency_ms: float,
    ) -> MethodResult:
        return MethodResult(
            method=method,
            scenario=scenario.name,
            model=model_name,
            ips=float(ips),
            latency_ms=float(latency_ms),
            max_compute_ms=evaluation.max_compute_ms,
            max_transmission_ms=evaluation.max_transmission_ms,
            plan=plan,
            evaluation=evaluation,
        )

    def compare(
        self,
        scenario: Scenario,
        methods: Sequence[str] = ALL_METHODS,
        model_name: str = "vgg16",
    ) -> Dict[str, MethodResult]:
        """Run several methods on one scenario."""
        return {m: self.run(m, scenario, model_name) for m in methods}

    # ------------------------------------------------------------------ #
    def serve_scenario(
        self,
        scenario: Scenario,
        methods: Sequence[str] = ("coedge", "offload"),
        model_name: str = "vgg16",
        traffic: Union[str, ArrivalProcess, Sequence[Union[str, ArrivalProcess]]] = (
            "traffic:poisson,rate=2"
        ),
        deadline_ms: Union[float, Sequence[float]] = 1000.0,
        queue_capacity: Optional[int] = None,
        duration_s: float = 30.0,
        mode: str = "batched",
        policy: Optional[ClusterPolicy] = None,
        weight: Union[float, Sequence[float]] = 1.0,
        slots: Union[int, Sequence[int]] = 1,
        schedule_memo: Optional[LRUCache] = None,
        faults: Optional[Union[str, FaultTrace, ChurnSpec]] = None,
        retry: Optional[RetryPolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> ServingReport:
        """Serve one tenant per method on a shared fleet and report SLOs.

        Each method's plan becomes a tenant driven by its arrival process
        (``traffic`` and ``deadline_ms`` broadcast a single value to every
        tenant, or supply one per method — note a single *spec* means a
        single *seed*, i.e. identical arrival times for every tenant).
        Evaluation routes through :meth:`evaluator_for`.  ``policy``
        switches on shared-fleet lane contention with the given cross-tenant
        dispatch discipline.
        Plans are cached per (method, scenario, model) within the harness,
        so load sweeps re-plan each tenant once, not once per point.
        ``slots`` sets within-tenant concurrency (broadcast like ``weight``)
        — pipelined requests are what let throughput scale with fleet size
        under contention; ``schedule_memo`` forwards an external contended-
        schedule memo so repeated runs (capacity probes) start warm.
        ``faults`` injects a churn trace (``churn:`` spec string,
        :class:`~repro.runtime.faults.ChurnSpec`, or resolved
        :class:`~repro.runtime.faults.FaultTrace`); ``retry`` and
        ``degradation`` set the recovery policies that ride along with it.
        """
        methods = list(methods)
        if isinstance(traffic, (str, ArrivalProcess)):
            traffics = [traffic] * len(methods)
        else:
            traffics = list(traffic)
        if isinstance(deadline_ms, (int, float)):
            deadlines = [float(deadline_ms)] * len(methods)
        else:
            deadlines = [float(d) for d in deadline_ms]
        if isinstance(weight, (int, float)):
            weights = [float(weight)] * len(methods)
        else:
            weights = [float(w) for w in weight]
        if isinstance(slots, int):
            slot_counts = [slots] * len(methods)
        else:
            slot_counts = [int(s) for s in slots]
        if (
            len(traffics) != len(methods)
            or len(deadlines) != len(methods)
            or len(weights) != len(methods)
            or len(slot_counts) != len(methods)
        ):
            raise ValueError(
                f"traffic/deadline_ms/weight/slots must broadcast to "
                f"{len(methods)} methods, got {len(traffics)}/{len(deadlines)}"
                f"/{len(weights)}/{len(slot_counts)}"
            )
        model = self.model(model_name)
        devices, network = scenario.build(seed=self.config.seed)
        evaluator = self.evaluator_for(devices, network)
        tenants = []
        for i, method in enumerate(methods):
            plan_key = (method, scenario, model_name)
            plan = self._plan_cache.get(plan_key)
            if plan is None:
                plan = self.plan_for(method, model, devices, network)
                self._plan_cache[plan_key] = plan
            name = method if methods.count(method) == 1 else f"{method}-{i}"
            tenants.append(
                TenantSpec(
                    name=name,
                    plan=plan,
                    traffic=resolve_traffic(traffics[i]),
                    slo=SLO(deadline_ms=deadlines[i]),
                    queue_capacity=queue_capacity,
                    weight=weights[i],
                    slots=slot_counts[i],
                )
            )
        return ServingSimulator(evaluator).run(
            tenants,
            duration_s=duration_s,
            mode=mode,
            policy=policy,
            schedule_memo=schedule_memo,
            faults=faults,
            retry=retry,
            degradation=degradation,
        )

    # ------------------------------------------------------------------ #
    def capacity_probe_runner(
        self,
        gen_spec: str,
        methods: Sequence[str] = ("coedge", "offload"),
        model_name: str = "vgg16",
        traffic: Union[str, ArrivalProcess, Sequence[Union[str, ArrivalProcess]]] = (
            "traffic:poisson,rate=2"
        ),
        deadline_ms: Union[float, Sequence[float]] = 1000.0,
        queue_capacity: Optional[int] = None,
        duration_s: float = 30.0,
        policy: Optional[ClusterPolicy] = None,
        weight: Union[float, Sequence[float]] = 1.0,
        slots: Union[int, Sequence[int]] = 1,
        share_schedule_memo: bool = True,
        faults: Optional[Union[str, ChurnSpec]] = None,
        retry: Optional[RetryPolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> Callable[[int], ServingReport]:
        """Build a ``probe(n)`` callable for :class:`~repro.serving.control.CapacityPlanner`.

        ``gen_spec`` must be a seeded ``gen:`` scenario spec; each probe
        rewrites its ``n=`` option (via
        :func:`~repro.experiments.scenarios.override_generator_spec`) and
        serves the same tenants/traffic on the resized fleet.  With
        ``share_schedule_memo`` a per-fleet-size schedule memo persists
        across probes, so re-probing a size the planner has already visited
        replays warm contention schedules instead of re-walking them — plan
        caches are shared too, via the harness-wide ``_plan_cache``.

        ``faults`` accepts a ``churn:`` spec string or :class:`ChurnSpec`
        (NOT a pre-resolved :class:`FaultTrace`): the trace is re-resolved
        against each probed fleet size, so the planner sizes the fleet for
        the *post-churn* capacity the probe actually observed.
        """
        if isinstance(faults, FaultTrace):
            raise TypeError(
                "capacity probes resize the fleet per probe; pass a churn: spec "
                "string or ChurnSpec so the trace re-resolves at each size, not "
                "a pre-resolved FaultTrace"
            )
        if not gen_spec.startswith(GENERATOR_PREFIX):
            raise ValueError(
                f"capacity planning needs a seeded {GENERATOR_PREFIX!r} scenario spec, "
                f"got {gen_spec!r}"
            )
        memos: Dict[int, LRUCache] = {}

        def probe(num_devices: int) -> ServingReport:
            scenario = resolve_scenario(
                override_generator_spec(gen_spec, n=num_devices)
            )
            memo: Optional[LRUCache] = None
            if share_schedule_memo and policy is not None:
                memo = memos.get(num_devices)
                if memo is None:
                    memo = LRUCache(policy.memo_size)
                    memos[num_devices] = memo
            return self.serve_scenario(
                scenario,
                methods=methods,
                model_name=model_name,
                traffic=traffic,
                deadline_ms=deadline_ms,
                queue_capacity=queue_capacity,
                duration_s=duration_s,
                mode="batched",
                policy=policy,
                weight=weight,
                slots=slots,
                schedule_memo=memo,
                faults=faults,
                retry=retry,
                degradation=degradation,
            )

        return probe

    def autoscale_window_runner(
        self,
        gen_spec: str,
        window_s: float,
        num_windows: int,
        methods: Sequence[str] = ("coedge", "offload"),
        model_name: str = "vgg16",
        traffic: Union[str, ArrivalProcess, Sequence[Union[str, ArrivalProcess]]] = (
            "traffic:poisson,rate=2"
        ),
        deadline_ms: Union[float, Sequence[float]] = 1000.0,
        queue_capacity: Optional[int] = None,
        policy: Optional[ClusterPolicy] = None,
        weight: Union[float, Sequence[float]] = 1.0,
        slots: Union[int, Sequence[int]] = 1,
        faults: Optional[Union[str, ChurnSpec]] = None,
        retry: Optional[RetryPolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> Callable[[int, int], ServingReport]:
        """Build a ``run_window(n, w)`` callable for :class:`~repro.serving.control.FleetAutoscaler`.

        The full-horizon arrival times (``num_windows * window_s`` seconds)
        are generated once per tenant up front, then each window ``w`` serves
        the slice ``[w * window_s, (w + 1) * window_s)`` — rebased to the
        window origin as a trace replay — on the fleet resized to ``n``
        devices.  Resizing between windows therefore never changes *which*
        requests arrive, only which fleet absorbs them.

        ``faults`` (a ``churn:`` spec string or :class:`ChurnSpec`, re-resolved
        per fleet size like :meth:`capacity_probe_runner`) injects the same
        window-relative churn trace into every window, so the autoscaler's
        decisions step from the *surviving* capacity each window reports
        (``report.faults.live_at_end``) rather than the nominal fleet size.
        """
        if isinstance(faults, FaultTrace):
            raise TypeError(
                "autoscaling resizes the fleet per window; pass a churn: spec "
                "string or ChurnSpec so the trace re-resolves at each size, not "
                "a pre-resolved FaultTrace"
            )
        if not gen_spec.startswith(GENERATOR_PREFIX):
            raise ValueError(
                f"autoscaling needs a seeded {GENERATOR_PREFIX!r} scenario spec, "
                f"got {gen_spec!r}"
            )
        if window_s <= 0 or num_windows <= 0:
            raise ValueError("window_s and num_windows must be positive")
        methods = list(methods)
        if isinstance(traffic, (str, ArrivalProcess)):
            traffics = [traffic] * len(methods)
        else:
            traffics = list(traffic)
        horizon_s = window_s * num_windows
        all_arrivals = [
            np.asarray(resolve_traffic(t).arrival_times(horizon_s, 0.0), dtype=float)
            for t in traffics
        ]

        def run_window(num_devices: int, window: int) -> ServingReport:
            if not 0 <= window < num_windows:
                raise ValueError(f"window must be in [0, {num_windows}), got {window}")
            scenario = resolve_scenario(
                override_generator_spec(gen_spec, n=num_devices)
            )
            t0 = window * window_s
            t1 = t0 + window_s
            window_traffics: List[ArrivalProcess] = []
            for times in all_arrivals:
                local = times[(times >= t0) & (times < t1)] - t0
                window_traffics.append(TraceArrivals(tuple(float(t) for t in local)))
            return self.serve_scenario(
                scenario,
                methods=methods,
                model_name=model_name,
                traffic=window_traffics,
                deadline_ms=deadline_ms,
                queue_capacity=queue_capacity,
                duration_s=window_s,
                mode="batched",
                policy=policy,
                weight=weight,
                slots=slots,
                faults=faults,
                retry=retry,
                degradation=degradation,
            )

        return run_window

    # ------------------------------------------------------------------ #
    @staticmethod
    def speedup_over_best_baseline(results: Dict[str, MethodResult]) -> float:
        """DistrEdge IPS divided by the best non-DistrEdge IPS."""
        if "distredge" not in results:
            raise KeyError("results must include a 'distredge' entry")
        baselines = [r.ips for name, r in results.items() if name != "distredge"]
        if not baselines:
            raise ValueError("no baseline results to compare against")
        return results["distredge"].ips / max(baselines)

    @staticmethod
    def ips_table(results: Dict[str, MethodResult]) -> Dict[str, float]:
        """Plain {method: IPS} mapping."""
        return {name: r.ips for name, r in results.items()}


__all__ = ["HarnessConfig", "ExperimentHarness", "MethodResult", "ALL_METHODS"]
