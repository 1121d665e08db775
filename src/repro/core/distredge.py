"""The DistrEdge planner: LC-PSS + OSDS behind one interface.

This is the user-facing entry point of the reproduction.  Given a CNN model,
a set of service providers and the network connecting them, :class:`DistrEdge`

1. runs LC-PSS (Algorithm 1) to choose the horizontal partition scheme, and
2. runs OSDS (Algorithm 2) — DDPG over the splitting MDP — to choose the
   vertical split decision of every layer-volume,

returning a :class:`~repro.runtime.plan.DistributionPlan` directly consumable
by the runtime simulator, exactly like every baseline planner.

The controller may plan against latency *profiles* (the realistic setting —
pass ``profiles``) or against the ground-truth device model ("real execution"
during training, the paper's other option).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.mdp import SplitMDP
from repro.core.osds import OSDS, OSDSConfig, OSDSResult
from repro.core.partitioner import LCPSS, LCPSSResult
from repro.devices.profiles import LatencyProfile
from repro.devices.specs import DeviceInstance
from repro.network.topology import NetworkModel
from repro.nn.graph import ModelSpec
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.oracles import GroundTruthComputeOracle, ProfileComputeOracle
from repro.runtime.plan import DistributionPlan
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fraction


@dataclass
class DistrEdgeConfig:
    """Configuration of the full DistrEdge pipeline (paper defaults)."""

    alpha: float = 0.75
    num_random_splits: int = 100
    osds: OSDSConfig = field(default_factory=OSDSConfig)
    seed: SeedLike = 0
    input_bytes_per_element: float = 0.4
    #: Seed the OSDS search with heuristic split decisions (single best
    #: device, capability-proportional).  Algorithm 2 keeps the best
    #: decisions ever visited, so seeding only adds candidate episodes; it
    #: substantially reduces the episode budget needed on small machines.
    seed_with_heuristics: bool = True

    def __post_init__(self) -> None:
        # LC-PSS checks these too, but only once planning has started.
        check_fraction(self.alpha, "alpha")
        if self.num_random_splits < 1:
            raise ValueError(f"num_random_splits must be >= 1, got {self.num_random_splits}")


@dataclass
class DistrEdgeResult:
    """Everything produced by one DistrEdge planning run."""

    plan: DistributionPlan
    lcpss: LCPSSResult
    osds: OSDSResult

    @property
    def predicted_latency_ms(self) -> float:
        return self.osds.best_latency_ms

    @property
    def predicted_ips(self) -> float:
        return self.osds.best_ips


class DistrEdge:
    """CNN inference distribution with LC-PSS and DRL-based splitting."""

    method_name = "distredge"

    def __init__(self, config: Optional[DistrEdgeConfig] = None) -> None:
        self.config = config or DistrEdgeConfig()

    # ------------------------------------------------------------------ #
    def _planning_evaluator(
        self,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        profiles: Optional[Sequence[LatencyProfile]],
    ) -> BatchPlanEvaluator:
        # The batch evaluator is a drop-in PlanEvaluator: the splitting MDP
        # steps through it volume-by-volume while whole-plan evaluations
        # (heuristic seeds, offload scale, OSDS seed warm-up) take the
        # vectorised, cached path.
        if profiles is None:
            oracle = GroundTruthComputeOracle(devices)
        else:
            oracle = ProfileComputeOracle(devices, profiles)
        return BatchPlanEvaluator(
            devices,
            network,
            compute_oracle=oracle,
            input_bytes_per_element=self.config.input_bytes_per_element,
        )

    @staticmethod
    def _cuts_to_raw(cuts: Sequence[int], output_height: int) -> np.ndarray:
        """Inverse of the action mapping (Eq. 9): cut points -> raw action."""
        h = max(output_height, 1)
        return np.array([2.0 * c / h - 1.0 for c in cuts], dtype=np.float32)

    def _heuristic_seeds(
        self,
        model: ModelSpec,
        boundaries: Sequence[int],
        devices: Sequence[DeviceInstance],
        evaluator: PlanEvaluator,
    ) -> List[List[np.ndarray]]:
        """Raw-action episodes encoding the heuristic plans used as seeds."""
        volumes = model.partition(boundaries)
        num_devices = len(devices)
        seeds: List[List[np.ndarray]] = []

        # Seed 1: everything on the single device with the lowest offload
        # latency (the Offload corner of the search space).  All offload
        # candidates are evaluated as one batch (a cache hit when the
        # splitting MDP already computed its latency scale from them).
        offload_plans = [
            DistributionPlan.single_device(model, devices, idx) for idx in range(num_devices)
        ]
        offload_latencies = [r.end_to_end_ms for r in evaluator.evaluate_plans(offload_plans)]
        best_idx = min(range(num_devices), key=offload_latencies.__getitem__)
        single: List[np.ndarray] = []
        for volume in volumes:
            h = volume.output_height
            cuts = [0] * best_idx + [h] * (num_devices - 1 - best_idx)
            single.append(self._cuts_to_raw(cuts, h))
        seeds.append(single)

        # Seed 2: capability-proportional fractions (the linear-model answer).
        capabilities = np.array([d.dtype.peak_macs_per_s for d in devices], dtype=float)
        fractions = capabilities / capabilities.sum()
        proportional: List[np.ndarray] = []
        for volume in volumes:
            decision = SplitDecision.from_fractions(fractions, volume.output_height)
            proportional.append(self._cuts_to_raw(decision.cuts, volume.output_height))
        seeds.append(proportional)

        # Seed 3: network-aware proportional fractions (the CoEdge/AOFL-style
        # answer): a device's share shrinks with the time it needs to pull
        # its rows over its link.
        network = getattr(evaluator, "network", None)
        if network is not None:
            network_aware: List[np.ndarray] = []
            for volume in volumes:
                macs_per_row = volume.macs / max(volume.output_height, 1)
                row_bytes = volume.first.in_w * volume.first.in_c * 2
                seconds_per_row = macs_per_row / capabilities
                link_rates = np.array(
                    [network.nominal_mbps(i) * 1e6 / 8.0 for i in range(len(devices))]
                )
                seconds_per_row = seconds_per_row + row_bytes / np.maximum(link_rates, 1e-6)
                rates = 1.0 / np.maximum(seconds_per_row, 1e-12)
                decision = SplitDecision.from_fractions(
                    rates / rates.sum(), volume.output_height
                )
                network_aware.append(self._cuts_to_raw(decision.cuts, volume.output_height))
            seeds.append(network_aware)
        return seeds

    # ------------------------------------------------------------------ #
    def partition(
        self,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
    ) -> LCPSSResult:
        """Run only the LC-PSS stage (useful for the alpha ablation, Fig. 5)."""
        lcpss = LCPSS(
            model,
            num_devices=len(devices),
            alpha=self.config.alpha,
            num_random_splits=self.config.num_random_splits,
            seed=self.config.seed,
            input_bytes_per_element=self.config.input_bytes_per_element,
        )
        return lcpss.search()

    def split(
        self,
        model: ModelSpec,
        boundaries: Sequence[int],
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        profiles: Optional[Sequence[LatencyProfile]] = None,
        osds_config: Optional[OSDSConfig] = None,
    ) -> OSDSResult:
        """Run only the OSDS stage on a given partition scheme."""
        evaluator = self._planning_evaluator(devices, network, profiles)
        env = SplitMDP(model, boundaries, devices, evaluator)
        osds = OSDS(env, osds_config or self.config.osds)
        seeds = (
            self._heuristic_seeds(model, boundaries, devices, evaluator)
            if self.config.seed_with_heuristics
            else None
        )
        return osds.run(initial_decisions=seeds)

    def plan(
        self,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        profiles: Optional[Sequence[LatencyProfile]] = None,
    ) -> DistributionPlan:
        """Full pipeline returning just the distribution plan."""
        return self.plan_detailed(model, devices, network, profiles).plan

    def plan_detailed(
        self,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        profiles: Optional[Sequence[LatencyProfile]] = None,
    ) -> DistrEdgeResult:
        """Full pipeline returning the plan plus per-stage results."""
        lcpss_result = self.partition(model, devices)
        osds_result = self.split(model, lcpss_result.boundaries, devices, network, profiles)
        plan = DistributionPlan(
            model=model,
            devices=devices,
            boundaries=lcpss_result.boundaries,
            decisions=osds_result.best_decisions,
            method=self.method_name,
        )
        return DistrEdgeResult(plan=plan, lcpss=lcpss_result, osds=osds_result)


__all__ = ["DistrEdge", "DistrEdgeConfig", "DistrEdgeResult"]
