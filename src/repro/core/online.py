"""Online adaptation under highly dynamic networks (Section V-F, Fig. 13).

Three controllers reproduce the paper's dynamic-network experiment:

* :class:`OnlineDistrEdgeController` — keeps the trained actor online.  Every
  ``decision_interval_s`` it re-rolls the actor on the splitting MDP under
  the *current* network conditions (cheap: one rollout), and when the
  monitored average throughput drifts by more than ``replan_threshold`` it
  re-runs LC-PSS and fine-tunes the actor — the plan switch becomes
  effective only after ``partition_replan_delay_s`` of simulated controller
  time (the paper measures 20 s - 210 s for this).
* :class:`PeriodicReplanController` — generic wrapper used for AOFL: replan
  (with the wrapped planner) when throughput drifts, with a long delay
  (the paper measures ~10 min for AOFL's brute-force partition search).
* CoEdge needs no controller class of its own: it re-plans every image with
  a negligible delay, which :class:`PeriodicReplanController` also models
  with ``replan_threshold=0`` and ``replan_delay_s=0``.

All controllers expose an ``adaptation_hook`` compatible with
:class:`~repro.runtime.streaming.StreamingSimulator` — and, since the
serving subsystem landed, with per-tenant replanning under multi-tenant
load: pass the hook through
:attr:`~repro.serving.tenants.TenantSpec.adaptation_hook` (or a fresh
controller per run via ``hook_factory``, which parity runs require) and the
controller replans its tenant's plan between that tenant's requests while
other tenants keep being served.  The hook contract is identical in both
settings: called before each dispatch with ``(time_seconds, request_index,
current_plan, latency_history_ms)``; a returned plan whose *strategy*
differs from the current one (see
:meth:`~repro.runtime.plan.DistributionPlan.same_strategy`) becomes the
tenant's new plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.distredge import DistrEdge, DistrEdgeConfig
from repro.core.mdp import SplitMDP, map_action_to_cuts
from repro.core.osds import OSDS, OSDSConfig
from repro.devices.specs import DeviceInstance
from repro.network.topology import NetworkModel
from repro.nn.graph import ModelSpec
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.plan import DistributionPlan

PlannerFn = Callable[[float], DistributionPlan]
"""A function mapping a (re-)planning time to a fresh plan for that moment."""


def mean_cluster_throughput(network: NetworkModel, t_seconds: float) -> float:
    """Average instantaneous provider throughput — the monitored signal."""
    rates = [
        network.provider_links[i].throughput_mbps(t_seconds)
        for i in range(network.num_providers)
    ]
    return float(np.mean(rates)) if rates else 0.0


@dataclass
class PeriodicReplanController:
    """Replans with an arbitrary planner whenever throughput drifts.

    Parameters
    ----------
    planner_fn:
        Called with the current time (seconds) and returning a new plan for
        the conditions at that time.
    network:
        The dynamic network being monitored.
    replan_threshold:
        Relative change of mean throughput (vs. the value at the last replan)
        that triggers re-planning; 0 replans before every image (CoEdge).
    replan_delay_s:
        Simulated controller time before the new plan takes effect (AOFL's
        brute-force search: ~600 s; CoEdge's closed-form split: ~0 s).
    """

    planner_fn: PlannerFn
    network: NetworkModel
    replan_threshold: float = 0.2
    replan_delay_s: float = 0.0
    _reference_mbps: Optional[float] = None
    _pending_plan: Optional[DistributionPlan] = None
    _pending_ready_s: float = 0.0
    replan_log: List[float] = field(default_factory=list)

    def adaptation_hook(
        self,
        t_seconds: float,
        image_index: int,
        current_plan: DistributionPlan,
        latency_history_ms: List[float],
    ) -> Optional[DistributionPlan]:
        # Deliver a pending plan once the controller finished computing it.
        if self._pending_plan is not None and t_seconds >= self._pending_ready_s:
            plan, self._pending_plan = self._pending_plan, None
            return plan
        current = mean_cluster_throughput(self.network, t_seconds)
        if self._reference_mbps is None:
            self._reference_mbps = current
        drift = abs(current - self._reference_mbps) / max(self._reference_mbps, 1e-6)
        if drift >= self.replan_threshold and self._pending_plan is None:
            self._reference_mbps = current
            self.replan_log.append(t_seconds)
            new_plan = self.planner_fn(t_seconds)
            if self.replan_delay_s <= 0:
                return new_plan
            self._pending_plan = new_plan
            self._pending_ready_s = t_seconds + self.replan_delay_s
        return None


@dataclass
class OnlineDistrEdgeController:
    """Keeps a trained DistrEdge actor making online split decisions.

    Parameters
    ----------
    model, devices, network:
        The deployment being served; ``network`` should carry dynamic traces.
    distredge:
        The planner (its config supplies alpha and OSDS settings).
    decision_interval_s:
        How often the actor refreshes split decisions from the current
        intermediate-latency observations (cheap rollouts).
    replan_threshold:
        Mean-throughput drift that triggers a partition update + fine-tune.
    partition_replan_delay_s:
        Simulated controller time for LC-PSS + actor fine-tuning before the
        new plan takes effect (paper: 20 s - 210 s).
    finetune_episodes:
        Number of OSDS episodes used when fine-tuning after a partition
        change.
    evaluator:
        Optional externally-owned evaluator to score candidates and step the
        splitting MDP through.  Default: a private :class:`~repro.runtime.batch.BatchPlanEvaluator`.
    """

    model: ModelSpec
    devices: Sequence[DeviceInstance]
    network: NetworkModel
    distredge: DistrEdge = field(default_factory=lambda: DistrEdge(DistrEdgeConfig()))
    decision_interval_s: float = 30.0
    replan_threshold: float = 0.25
    partition_replan_delay_s: float = 120.0
    finetune_episodes: int = 50
    evaluator: Optional[object] = None
    replan_log: List[float] = field(default_factory=list)
    decision_log: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Batch path: candidate split decisions are scored in one vectorised
        # call per refresh, and re-considering the plan currently in service
        # is a cache hit whenever the network state has not changed.
        self._evaluator = self.evaluator or BatchPlanEvaluator(
            self.devices,
            self.network,
            input_bytes_per_element=self.distredge.config.input_bytes_per_element,
        )
        self._boundaries: Optional[List[int]] = None
        self._osds: Optional[OSDS] = None
        self._last_decision_s: Optional[float] = None
        self._reference_mbps: Optional[float] = None
        self._pending_plan: Optional[DistributionPlan] = None
        self._pending_ready_s = 0.0

    # ------------------------------------------------------------------ #
    def initial_plan(self, t_seconds: float = 0.0) -> DistributionPlan:
        """Train the initial strategy for the conditions at ``t_seconds``."""
        lcpss = self.distredge.partition(self.model, self.devices)
        self._boundaries = lcpss.boundaries
        env = SplitMDP(self.model, lcpss.boundaries, self.devices, self._evaluator)
        self._osds = OSDS(env, self.distredge.config.osds)
        seeds = (
            self.distredge._heuristic_seeds(
                self.model, lcpss.boundaries, self.devices, self._evaluator
            )
            if self.distredge.config.seed_with_heuristics
            else None
        )
        result = self._osds.run(initial_decisions=seeds)
        self._reference_mbps = mean_cluster_throughput(self.network, t_seconds)
        self._last_decision_s = t_seconds
        return result.best_plan

    def _online_decisions(
        self, t_seconds: float, current_plan: Optional[DistributionPlan] = None
    ) -> Optional[DistributionPlan]:
        """Refresh split decisions under the current network conditions.

        The controller keeps the actor online and evaluates a handful of
        candidate split-decision sets against the *instantaneous* conditions:
        the current plan, the actor's greedy and noisy rollouts, and the
        cheap closed-form candidates (offload corner and rate-proportional
        fractions at the current link rates).  The best candidate wins; the
        plan is only replaced when it beats the plan currently in service,
        so an imperfectly trained actor can never degrade the deployment.
        This whole step costs milliseconds — the point of contrast with
        AOFL's brute-force re-planning (Section V-F).

        All candidate scoring routes through the batch path: the actor
        rollouts advance in lockstep (one batched policy forward per volume
        for all attempts, with exploration noise pre-drawn in the same order
        the sequential rollouts used), and the closed-form candidates plus
        the incumbent plan are evaluated in a single vectorised call.

        Note: unlike the OSDS training loop (which stays bit-identical
        through the batch path), the batched actor forward is a different
        BLAS call shape than per-candidate ``act`` and may round an action
        component by an ulp, occasionally flipping which candidate wins a
        refresh.  This is safe by construction — a candidate only replaces
        the incumbent when it evaluates strictly better under the current
        conditions — and plan *evaluation* itself remains exact.
        """
        assert self._osds is not None and self._boundaries is not None
        agent = self._osds.agent
        num_attempts = 4
        envs = [
            SplitMDP(self.model, self._boundaries, self.devices, self._evaluator)
            for _ in range(num_attempts)
        ]
        num_volumes = envs[0].num_volumes
        # Pre-draw exploration noise attempt-major (attempt 0 is greedy).
        noise = np.zeros((num_volumes, num_attempts, agent.action_dim))
        for attempt in range(1, num_attempts):
            for step in range(num_volumes):
                noise[step, attempt] = agent.draw_noise()

        best_latency = None
        plan = None

        def consider(latency: float, candidate: DistributionPlan) -> None:
            nonlocal best_latency, plan
            if best_latency is None or latency < best_latency:
                best_latency = latency
                plan = candidate

        # Actor rollouts (greedy + exploratory), advanced in lockstep.
        obs = np.stack([env.reset(t_seconds=t_seconds) for env in envs])
        for step in range(num_volumes):
            actions = agent.act_batch(obs, noise=noise[step])
            for attempt, env in enumerate(envs):
                next_obs, _, done, info = env.step(actions[attempt])
                obs[attempt] = next_obs
                if done:
                    consider(info["end_to_end_ms"], info["plan"])

        # Closed-form candidates under the current conditions, scored
        # together with the plan currently in service in one batched call.
        volumes = envs[0].volumes
        seed_plans = []
        for seed_actions in self.distredge._heuristic_seeds(
            self.model, self._boundaries, self.devices, self._evaluator
        ):
            decisions = [
                SplitDecision(
                    cuts=map_action_to_cuts(np.asarray(action), volume.output_height),
                    output_height=volume.output_height,
                )
                for action, volume in zip(seed_actions, volumes)
            ]
            seed_plans.append(envs[0].build_plan(decisions))
        batch = list(seed_plans)
        if current_plan is not None:
            batch.append(current_plan)
        results = self._evaluator.evaluate_plans(batch, t_seconds=t_seconds)
        for candidate, result in zip(seed_plans, results):
            consider(result.end_to_end_ms, candidate)
        self.decision_log.append(t_seconds)
        if plan is None:
            return None
        if current_plan is not None:
            current_latency = results[-1].end_to_end_ms
            if current_latency <= best_latency:
                return None
        return plan

    def _replan_partition(self, t_seconds: float) -> DistributionPlan:
        """LC-PSS + fine-tuning after a significant throughput change."""
        assert self._osds is not None
        lcpss = self.distredge.partition(self.model, self.devices)
        self._boundaries = lcpss.boundaries
        env = SplitMDP(self.model, self._boundaries, self.devices, self._evaluator)
        finetune_cfg = OSDSConfig(
            max_episodes=max(self.finetune_episodes, 1),
            delta_epsilon=self.distredge.config.osds.delta_epsilon,
            sigma_squared=self.distredge.config.osds.sigma_squared,
            ddpg=self.distredge.config.osds.ddpg,
            seed=self.distredge.config.osds.seed,
            episode_batch=self.distredge.config.osds.episode_batch,
            policy_refresh=self.distredge.config.osds.policy_refresh,
        )
        finetune = OSDS(env, finetune_cfg)
        # Fine-tune starting from the current policy rather than from scratch.
        finetune.agent.restore(self._osds.agent.snapshot())
        result = finetune.run()
        self._osds = finetune
        self.replan_log.append(t_seconds)
        return result.best_plan

    # ------------------------------------------------------------------ #
    def adaptation_hook(
        self,
        t_seconds: float,
        image_index: int,
        current_plan: DistributionPlan,
        latency_history_ms: List[float],
    ) -> Optional[DistributionPlan]:
        """Hook for :class:`~repro.runtime.streaming.StreamingSimulator`."""
        if self._osds is None:
            raise RuntimeError("call initial_plan() before streaming")
        if self._pending_plan is not None and t_seconds >= self._pending_ready_s:
            plan, self._pending_plan = self._pending_plan, None
            return plan
        current = mean_cluster_throughput(self.network, t_seconds)
        if self._reference_mbps is None:
            self._reference_mbps = current
        drift = abs(current - self._reference_mbps) / max(self._reference_mbps, 1e-6)
        if drift >= self.replan_threshold and self._pending_plan is None:
            self._reference_mbps = current
            new_plan = self._replan_partition(t_seconds)
            self._pending_plan = new_plan
            self._pending_ready_s = t_seconds + self.partition_replan_delay_s
            return None
        if (
            self._last_decision_s is None
            or t_seconds - self._last_decision_s >= self.decision_interval_s
        ):
            self._last_decision_s = t_seconds
            return self._online_decisions(t_seconds, current_plan)
        return None


__all__ = [
    "PeriodicReplanController",
    "OnlineDistrEdgeController",
    "mean_cluster_throughput",
]
