"""OSDS: Optimal Split Decision Search (Algorithm 2), episode-batched.

OSDS trains a DDPG agent on the splitting MDP for ``Max_ep`` episodes.  Each
episode walks all layer-volumes, choosing per-volume split decisions either
from the actor (exploitation) or from the actor plus Gaussian noise
(exploration, gated by the schedule ``epsilon = 1 - (episode * delta_eps)^2``
of Algorithm 2 line 8).  The raw actions are stored in the replay buffer;
the networks are updated once per step.  The best split decisions ever
observed — together with the actor/critic parameters at that point — are
recorded and returned (lines 23-26), so OSDS degrades gracefully into a
guided random search even before the policy converges.

Execution is **episode-batched**: episodes are processed in rounds of up to
``episode_batch`` concurrent episodes, stepped in lockstep through one
vectorised :class:`~repro.core.mdp.BatchSplitMDP` sweep per layer-volume
instead of ``E`` scalar MDP walks.  Three design rules make the result a
pure function of the configuration — bit-identical at *any* execution
width, including the scalar ``episode_batch=1`` loop:

1. **Frozen acting policy.**  Actions are taken through a snapshot of the
   actor refreshed every ``policy_refresh`` episodes (a semantic knob,
   independent of the execution width), so an episode's rollout never
   depends on how many neighbours rolled out beside it.  Replay updates
   still train the live networks every step, in canonical episode order.
2. **Counter-based exploration randomness.**  The exploration gate and the
   Gaussian noise of episode ``e``, step ``l`` are drawn from
   :func:`~repro.utils.rng.counter_rng`\\ ``(root, e, l)`` — a pure function
   of the seed and the counters, immune to batching layout.
3. **Canonical commits.**  Replay-buffer feeding, network updates,
   best-plan tracking and the ``patience`` early stop are applied
   episode-major / step-major after each round, exactly the order the
   scalar loop produces; a round that overshoots an early stop discards the
   speculative trailing episodes without committing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ddpg import DDPGAgent, DDPGConfig
from repro.core.mdp import BatchSplitMDP, SplitMDP, map_action_to_cuts
from repro.nn.splitting import SplitDecision
from repro.runtime.plan import DistributionPlan
from repro.utils.rng import SeedLike, counter_rng, root_seed


@dataclass
class OSDSConfig:
    """Hyper-parameters of Algorithm 2 (paper defaults in parentheses).

    ``max_episodes`` (4000) and ``delta_epsilon`` (1/250) control the length
    of training and the decay of the exploration gate; ``sigma_squared``
    (0.1 for four providers, 1.0 for sixteen) is the exploration noise
    variance.  Reduced episode counts are used by the fast test/bench
    configurations; the defaults match the paper.

    ``episode_batch`` is pure *execution width* — how many episodes roll
    out in lockstep per vectorised round; results are bit-identical for any
    value.  ``policy_refresh`` is *semantic*: the acting-policy snapshot is
    refreshed at episode indices divisible by it (rounds never cross a
    refresh boundary), so changing it changes which policy explores — akin
    to target-network staleness in DDPG itself.
    """

    max_episodes: int = 4000
    delta_epsilon: float = 1.0 / 250.0
    sigma_squared: float = 0.1
    ddpg: DDPGConfig = field(default_factory=DDPGConfig)
    updates_per_step: int = 1
    seed: SeedLike = 0
    #: Stop early when the best latency has not improved for this many
    #: episodes (None disables early stopping; the paper trains a fixed
    #: number of episodes).
    patience: Optional[int] = None
    #: Episodes rolled out concurrently per vectorised round (1 = scalar
    #: loop).  Execution width only — never changes results.  Rounds never
    #: cross a policy-refresh boundary, so the *effective* width is capped
    #: at ``policy_refresh``; widths beyond it need that knob raised too.
    episode_batch: int = 8
    #: Episodes between acting-policy snapshot refreshes.
    policy_refresh: int = 8

    def __post_init__(self) -> None:
        if self.max_episodes < 1:
            raise ValueError(f"max_episodes must be >= 1, got {self.max_episodes}")
        if self.delta_epsilon <= 0:
            raise ValueError(f"delta_epsilon must be > 0, got {self.delta_epsilon}")
        if self.sigma_squared < 0:
            raise ValueError(f"sigma_squared must be >= 0, got {self.sigma_squared}")
        if self.updates_per_step < 0:
            raise ValueError(f"updates_per_step must be >= 0, got {self.updates_per_step}")
        if self.episode_batch < 1:
            raise ValueError(f"episode_batch must be >= 1, got {self.episode_batch}")
        if self.policy_refresh < 1:
            raise ValueError(f"policy_refresh must be >= 1, got {self.policy_refresh}")


@dataclass
class OSDSResult:
    """Outcome of an OSDS run."""

    best_latency_ms: float
    best_decisions: List[SplitDecision]
    best_plan: DistributionPlan
    episode_latencies_ms: np.ndarray
    episodes_run: int
    agent: DDPGAgent
    best_snapshot: dict

    @property
    def best_ips(self) -> float:
        return 1000.0 / self.best_latency_ms if self.best_latency_ms > 0 else float("inf")


@dataclass
class _EpisodeRollout:
    """One rolled-out (not yet committed) episode of a round."""

    transitions: List[Tuple[np.ndarray, np.ndarray, float, np.ndarray, bool]]
    latency_ms: float
    decisions: List[SplitDecision]
    #: Scalar rollouts carry the plan the environment already built; batched
    #: rollouts leave it None and the plan is built lazily on improvement.
    plan: Optional[DistributionPlan]


class OSDS:
    """Runs Algorithm 2 over a :class:`~repro.core.mdp.SplitMDP`."""

    def __init__(self, env: SplitMDP, config: Optional[OSDSConfig] = None) -> None:
        self.env = env
        self.config = config or OSDSConfig()
        cfg = self.config
        ddpg_cfg = cfg.ddpg
        # The exploration noise of Algorithm 2 is sigma^2; DDPGConfig carries
        # the standard deviation, so propagate the paper's value here.
        ddpg_cfg = DDPGConfig(
            actor_hidden=ddpg_cfg.actor_hidden,
            critic_hidden=ddpg_cfg.critic_hidden,
            actor_lr=ddpg_cfg.actor_lr,
            critic_lr=ddpg_cfg.critic_lr,
            gamma=ddpg_cfg.gamma,
            batch_size=ddpg_cfg.batch_size,
            noise_sigma=float(np.sqrt(cfg.sigma_squared)),
            tau=ddpg_cfg.tau,
            buffer_capacity=ddpg_cfg.buffer_capacity,
            warmup_transitions=ddpg_cfg.warmup_transitions,
        )
        self.agent = DDPGAgent(
            state_dim=env.state_dim,
            action_dim=env.action_dim,
            config=ddpg_cfg,
            seed=cfg.seed,
        )
        #: Root of the counter-based exploration streams (rule 2 above).
        self._root = root_seed(cfg.seed)
        #: Frozen acting policy (rule 1); refreshed from the live actor at
        #: policy-refresh boundaries.
        self._acting_actor = self.agent.actor_copy()

    # ------------------------------------------------------------------ #
    def _warm_up_seeds(self, seeds: Sequence[Sequence[np.ndarray]]) -> None:
        """Batch-evaluate the seed episodes' plans before training starts.

        Seed episodes have their whole action sequence fixed up-front, so
        their plans can be built and evaluated as one vectorised batch.  The
        batch engine seeds the evaluator's per-part compute memo, so when the
        episode loop replays the same plans volume-by-volume (the stepping
        path, which the DDPG transitions need) every part latency is a cache
        hit returning the bit-identical float.
        """
        evaluator = self.env.evaluator
        if not seeds or not hasattr(evaluator, "evaluate_plans"):
            return
        plans = []
        for actions in seeds:
            if len(actions) != self.env.num_volumes:
                continue
            decisions = [
                SplitDecision(
                    cuts=map_action_to_cuts(action, volume.output_height),
                    output_height=volume.output_height,
                )
                for action, volume in zip(actions, self.env.volumes)
            ]
            plans.append(self.env.build_plan(decisions))
        if plans:
            evaluator.evaluate_plans(plans)

    def epsilon(self, episode: int) -> float:
        """Exploration gate of Algorithm 2 line 8 (clipped at 0)."""
        eps = 1.0 - (episode * self.config.delta_epsilon) ** 2
        return float(max(eps, 0.0))

    # ------------------------------------------------------------------ #
    def _policy_action(self, episode: int, step: int, eps: float, obs: np.ndarray) -> np.ndarray:
        """Acting-policy output for ``(episode, step)``, exploration included.

        The gate draw and (when exploring) the noise draw come from the
        counter stream of exactly this ``(episode, step)`` pair, and the
        forward pass runs through the frozen acting actor one row at a time
        — identical calls in the scalar and lockstep paths.
        """
        rng = counter_rng(self._root, episode, step)
        sigma = self.agent.config.noise_sigma
        action = self._acting_actor.forward(obs)[0]
        if rng.random() < eps and sigma > 0:
            action = action + rng.normal(0.0, sigma, size=self.agent.action_dim)
        return np.clip(action, -1.0, 1.0).astype(np.float32)

    def _rollout_sequential(
        self, episode: int, seeds: Sequence[Sequence[np.ndarray]]
    ) -> _EpisodeRollout:
        """Roll one episode through the scalar environment."""
        env = self.env
        obs = env.reset()
        eps = self.epsilon(episode)
        forced = seeds[episode] if episode < len(seeds) else None
        transitions: List[Tuple[np.ndarray, np.ndarray, float, np.ndarray, bool]] = []
        latency = None
        decisions: Optional[List[SplitDecision]] = None
        plan: Optional[DistributionPlan] = None
        for step in range(env.num_volumes):
            if forced is not None:
                raw_action = np.asarray(forced[step], dtype=np.float32)
            else:
                raw_action = self._policy_action(episode, step, eps, obs)
            next_obs, reward, done, info = env.step(raw_action)
            transitions.append((obs, raw_action, reward, next_obs, done))
            obs = next_obs
            if done:
                latency = info["end_to_end_ms"]
                decisions = info["decisions"]
                plan = info["plan"]
        assert latency is not None and decisions is not None
        return _EpisodeRollout(transitions, latency, decisions, plan)

    def _rollout_round_batched(
        self,
        batch_env: BatchSplitMDP,
        first_episode: int,
        width: int,
        seeds: Sequence[Sequence[np.ndarray]],
    ) -> List[_EpisodeRollout]:
        """Roll ``width`` consecutive episodes in lockstep (one vectorised
        environment sweep per layer-volume, one scalar acting forward per
        episode)."""
        env = self.env
        obs = batch_env.reset()
        eps = [self.epsilon(first_episode + k) for k in range(width)]
        transitions: List[List[Tuple[np.ndarray, np.ndarray, float, np.ndarray, bool]]] = [
            [] for _ in range(width)
        ]
        infos: List[dict] = []
        for step in range(env.num_volumes):
            actions = np.empty((width, env.action_dim), dtype=np.float32)
            for k in range(width):
                episode = first_episode + k
                forced = seeds[episode] if episode < len(seeds) else None
                if forced is not None:
                    actions[k] = np.asarray(forced[step], dtype=np.float32)
                else:
                    actions[k] = self._policy_action(episode, step, eps[k], obs[k])
            next_obs, rewards, done, infos = batch_env.step(actions)
            for k in range(width):
                transitions[k].append(
                    (obs[k], actions[k], float(rewards[k]), next_obs[k], done)
                )
            obs = next_obs
        return [
            _EpisodeRollout(
                transitions[k],
                infos[k]["end_to_end_ms"],
                infos[k]["decisions"],
                None,
            )
            for k in range(width)
        ]

    # ------------------------------------------------------------------ #
    def run(
        self,
        train: bool = True,
        initial_decisions: Optional[Sequence[Sequence[np.ndarray]]] = None,
    ) -> OSDSResult:
        """Train for ``max_episodes`` episodes and return the best plan found.

        ``train=False`` skips the network updates (pure rollout of the
        current policy plus exploration), which the online controller uses
        when it only wants fresh split decisions from an already-trained
        actor.  ``initial_decisions`` optionally seeds the first episodes
        with externally provided raw action sequences (e.g. the linear-ratio
        heuristic), which both warm-starts the replay buffer and guarantees
        the search never returns anything worse than those seeds.

        Episodes execute in rounds of up to ``episode_batch`` (see the
        module docstring); the result is bit-identical for every execution
        width, so callers can pick the width purely for speed.
        """
        cfg = self.config
        env = self.env
        agent = self.agent

        best_latency = float("inf")
        best_decisions: Optional[List[SplitDecision]] = None
        best_plan: Optional[DistributionPlan] = None
        best_snapshot = agent.snapshot()
        episode_latencies: List[float] = []
        since_improvement = 0

        seeds = list(initial_decisions or [])
        self._warm_up_seeds(seeds)
        use_batch = cfg.episode_batch > 1 and BatchSplitMDP.supports(env)
        batch_envs: Dict[int, BatchSplitMDP] = {}

        episode = 0
        stopped = False
        while episode < cfg.max_episodes and not stopped:
            if episode % cfg.policy_refresh == 0:
                self._acting_actor.copy_from(agent.actor)
            width = min(
                cfg.episode_batch,
                cfg.policy_refresh - (episode % cfg.policy_refresh),
                cfg.max_episodes - episode,
            )
            if width > 1 and use_batch:
                batch_env = batch_envs.get(width)
                if batch_env is None:
                    batch_env = batch_envs.setdefault(width, BatchSplitMDP(env, width))
                rollouts = self._rollout_round_batched(batch_env, episode, width, seeds)
            else:
                rollouts = [
                    self._rollout_sequential(episode + k, seeds) for k in range(width)
                ]

            # Canonical commit: episode-major, step-major — the exact order
            # the scalar loop feeds the buffer and checks for improvement.
            committed = 0
            for rollout in rollouts:
                if train:
                    for state, action, reward, next_state, done in rollout.transitions:
                        agent.remember(state, action, reward, next_state, done)
                        for _ in range(cfg.updates_per_step):
                            agent.update()
                latency = rollout.latency_ms
                if latency < best_latency:
                    best_latency = latency
                    best_decisions = rollout.decisions
                    best_plan = rollout.plan or env.build_plan(rollout.decisions)
                    best_snapshot = agent.snapshot()
                    since_improvement = 0
                else:
                    since_improvement += 1
                episode_latencies.append(latency)
                committed += 1
                if cfg.patience is not None and since_improvement >= cfg.patience:
                    # Trailing episodes of this round were speculative; they
                    # are discarded uncommitted, exactly as if they never ran.
                    stopped = True
                    break
            episode += committed

        assert best_decisions is not None and best_plan is not None
        return OSDSResult(
            best_latency_ms=best_latency,
            best_decisions=best_decisions,
            best_plan=best_plan,
            episode_latencies_ms=np.asarray(episode_latencies),
            episodes_run=len(episode_latencies),
            agent=agent,
            best_snapshot=best_snapshot,
        )

    # ------------------------------------------------------------------ #
    def greedy_rollout(self) -> OSDSResult:
        """Single noise-free rollout of the current policy (no training)."""
        env = self.env
        agent = self.agent
        obs = env.reset()
        decisions: List[SplitDecision] = []
        latency = None
        plan = None
        for _ in range(env.num_volumes):
            action = agent.act(obs, noise=False)
            obs, _, done, info = env.step(action)
            if done:
                latency = info["end_to_end_ms"]
                decisions = info["decisions"]
                plan = info["plan"]
        assert latency is not None and plan is not None
        return OSDSResult(
            best_latency_ms=latency,
            best_decisions=decisions,
            best_plan=plan,
            episode_latencies_ms=np.asarray([latency]),
            episodes_run=1,
            agent=agent,
            best_snapshot=agent.snapshot(),
        )


__all__ = ["OSDS", "OSDSConfig", "OSDSResult"]
