"""The layer-volume splitting MDP (Section IV-C1).

Each episode walks the layer-volumes of a partitioned model in order.  At
step *l* the agent observes

    s_l = (T^{l-1}, H_l, C_l, F_l, S_l)                         (Eq. 7)

— the accumulated latencies of every provider after volume *l-1* plus the
configuration of volume *l*'s last layer — and emits a continuous action

    a_l = (x~_1, ..., x~_{|D|-1})                                (Eq. 6)

whose sorted components are mapped to integer cut points on the volume's
output height (Eq. 9).  The environment splits the volume accordingly,
schedules it on the simulated cluster (using the same stepping machinery as
the plan evaluator, so accumulated latencies include transmission and
queueing), and returns reward 0 until the terminal step, where the reward is
``reward_scale / T`` with ``T`` the end-to-end latency (Eq. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.specs import DeviceInstance
from repro.nn.graph import LayerVolume, ModelSpec, cached_partition
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator, BatchVolumeScheduler
from repro.runtime.evaluator import PlanEvaluator, ScheduleState
from repro.runtime.plan import DistributionPlan, VolumeAssignment
from repro.nn.splitting import split_volume


@dataclass(frozen=True)
class SplitState:
    """Observation of the splitting MDP at one step."""

    accumulated_ms: np.ndarray  # T^{l-1}, one entry per provider
    height: int  # H_l: output height of the volume's last layer
    channels: int  # C_l: output depth of the volume's last layer
    kernel: int  # F_l
    stride: int  # S_l
    volume_index: int

    def to_vector(self, latency_scale_ms: float, max_height: int, max_channels: int) -> np.ndarray:
        """Normalised feature vector fed to the actor/critic networks."""
        lat = self.accumulated_ms / max(latency_scale_ms, 1e-6)
        feats = np.array(
            [
                self.height / max(max_height, 1),
                self.channels / max(max_channels, 1),
                self.kernel / 7.0,
                self.stride / 2.0,
            ],
            dtype=np.float32,
        )
        return np.concatenate([lat.astype(np.float32), feats])


@dataclass(frozen=True)
class SplitAction:
    """Raw continuous action plus its mapping to a concrete split decision."""

    raw: np.ndarray
    decision: SplitDecision


def map_action_to_cuts(raw_action: np.ndarray, output_height: int) -> Tuple[int, ...]:
    """Sort a raw [-1, 1] action and map it to integer cut points (Eq. 9)."""
    a, b = -1.0, 1.0
    sorted_action = np.sort(np.clip(np.asarray(raw_action, dtype=float), a, b))
    cuts = np.rint(output_height * (sorted_action - a) / (b - a)).astype(int)
    cuts = np.clip(cuts, 0, output_height)
    return tuple(int(c) for c in cuts)


def map_action_to_cuts_batch(raw_actions: np.ndarray, output_height: int) -> np.ndarray:
    """Vectorised :func:`map_action_to_cuts` over an ``(episodes, |D|-1)`` batch.

    Each row undergoes the identical sort / clip / round arithmetic as the
    scalar mapping, so ``map_action_to_cuts_batch(A, h)[i]`` equals
    ``map_action_to_cuts(A[i], h)`` element for element.
    """
    a, b = -1.0, 1.0
    sorted_actions = np.sort(
        np.clip(np.asarray(raw_actions, dtype=float), a, b), axis=1
    )
    cuts = np.rint(output_height * (sorted_actions - a) / (b - a)).astype(int)
    return np.clip(cuts, 0, output_height)


class SplitMDP:
    """Environment over which OSDS trains its DDPG agent.

    Parameters
    ----------
    model:
        The CNN model being distributed.
    boundaries:
        Partition scheme produced by LC-PSS.
    devices:
        Service providers (their count fixes the action dimension).
    evaluator:
        The plan evaluator providing latency semantics; during training it
        may be backed by profiles (controller estimates) or by the
        ground-truth model ("real execution"), as the paper allows both.
    reward_scale:
        Numerator of the terminal reward ``reward_scale / T_ms``; the default
        of 1000 makes the terminal reward equal to images-per-second.
    """

    def __init__(
        self,
        model: ModelSpec,
        boundaries: Sequence[int],
        devices: Sequence[DeviceInstance],
        evaluator: PlanEvaluator,
        reward_scale: float = 1000.0,
    ) -> None:
        self.model = model
        self.boundaries = list(boundaries)
        self.devices = list(devices)
        self.evaluator = evaluator
        self.reward_scale = float(reward_scale)
        self.volumes: List[LayerVolume] = cached_partition(model, self.boundaries)
        self._max_height = max(v.output_height for v in self.volumes)
        self._max_channels = max(v.last.out_c for v in self.volumes)
        # Latency normalisation: offloading everything to the fastest device
        # gives a natural scale for accumulated latencies.
        self._latency_scale = self._offload_scale_ms()

        self._state: Optional[ScheduleState] = None
        self._decisions: List[SplitDecision] = []
        self._step_index = 0
        self._t_seconds = 0.0

    # ------------------------------------------------------------------ #
    @property
    def num_volumes(self) -> int:
        return len(self.volumes)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def action_dim(self) -> int:
        """``|D| - 1`` cut points (Eq. 6)."""
        return max(len(self.devices) - 1, 1)

    @property
    def state_dim(self) -> int:
        """``|D|`` accumulated latencies plus the 4 layer-configuration features."""
        return len(self.devices) + 4

    @property
    def latency_scale_ms(self) -> float:
        return self._latency_scale

    def _offload_scale_ms(self) -> float:
        plans = [
            DistributionPlan.single_device(self.model, self.devices, idx)
            for idx in range(len(self.devices))
        ]
        if not plans:
            return 1000.0
        # One vectorised (and cached — the heuristic seeds evaluate the same
        # offload plans) call on a batch evaluator.
        results = self.evaluator.evaluate_plans(plans)
        return float(min(r.end_to_end_ms for r in results))

    # ------------------------------------------------------------------ #
    def observation(self) -> SplitState:
        """Current observation ``s_l``."""
        volume = self.volumes[self._step_index]
        if self._state is None or not self._state.accumulated:
            accumulated = np.zeros(len(self.devices))
        else:
            accumulated = self._state.accumulated[-1].copy()
        last = volume.last
        return SplitState(
            accumulated_ms=accumulated,
            height=volume.output_height,
            channels=last.out_c,
            kernel=last.kernel,
            stride=last.stride,
            volume_index=self._step_index,
        )

    def observation_vector(self) -> np.ndarray:
        return self.observation().to_vector(
            self._latency_scale, self._max_height, self._max_channels
        )

    def reset(self, t_seconds: float = 0.0) -> np.ndarray:
        """Start a new episode; returns the initial observation vector."""
        self._state = self.evaluator.new_state()
        self._decisions = []
        self._step_index = 0
        self._t_seconds = float(t_seconds)
        return self.observation_vector()

    def decision_from_action(self, raw_action: np.ndarray) -> SplitDecision:
        """Map a raw continuous action to the current volume's split decision."""
        volume = self.volumes[self._step_index]
        cuts = map_action_to_cuts(raw_action, volume.output_height)
        return SplitDecision(cuts=cuts, output_height=volume.output_height)

    def step(self, raw_action: np.ndarray) -> Tuple[np.ndarray, float, bool, dict]:
        """Apply an action for the current volume.

        Returns ``(next_observation, reward, done, info)``.  ``info`` carries
        the end-to-end latency and the collected decisions once the episode
        terminates.
        """
        if self._state is None:
            raise RuntimeError("step() called before reset()")
        if self._step_index >= self.num_volumes:
            raise RuntimeError("episode already finished; call reset()")
        volume = self.volumes[self._step_index]
        decision = self.decision_from_action(raw_action)
        self._decisions.append(decision)
        assignment = VolumeAssignment(
            volume=volume, decision=decision, parts=tuple(split_volume(volume, decision))
        )
        self.evaluator.process_volume(self._state, assignment, self._t_seconds)
        self._step_index += 1
        done = self._step_index >= self.num_volumes
        info: dict = {}
        if done:
            plan = self.build_plan(self._decisions)
            result = self.evaluator.finalize(self._state, plan, self._t_seconds)
            reward = self.reward_scale / max(result.end_to_end_ms, 1e-6)
            info = {
                "end_to_end_ms": result.end_to_end_ms,
                "decisions": list(self._decisions),
                "plan": plan,
                "result": result,
            }
            next_obs = np.zeros(self.state_dim, dtype=np.float32)
        else:
            reward = 0.0
            next_obs = self.observation_vector()
        return next_obs, float(reward), done, info

    # ------------------------------------------------------------------ #
    def build_plan(
        self, decisions: Sequence[SplitDecision], method: str = "distredge"
    ) -> DistributionPlan:
        """Assemble a distribution plan from per-volume decisions."""
        return DistributionPlan(
            model=self.model,
            devices=self.devices,
            boundaries=self.boundaries,
            decisions=list(decisions),
            method=method,
        )

    def rollout(self, raw_actions: Sequence[np.ndarray]) -> Tuple[float, DistributionPlan]:
        """Evaluate a full sequence of raw actions (used in tests/ablations)."""
        if len(raw_actions) != self.num_volumes:
            raise ValueError(
                f"need {self.num_volumes} actions, got {len(raw_actions)}"
            )
        self.reset()
        latency = None
        plan = None
        for action in raw_actions:
            _, _, done, info = self.step(action)
            if done:
                latency = info["end_to_end_ms"]
                plan = info["plan"]
        assert latency is not None and plan is not None
        return latency, plan


class BatchSplitMDP:
    """``E`` concurrent episodes of a :class:`SplitMDP`, stepped in lockstep.

    The scalar environment advances one episode through Python-level
    scheduling; this wrapper advances a whole *round* of independent
    episodes through one :class:`~repro.runtime.batch.BatchVolumeScheduler`
    sweep per volume, so the per-step cost is one ``(episodes, devices)``
    array program instead of ``E`` scalar walks.  Observations, rewards and
    terminal latencies are bit-identical to stepping each episode through
    the scalar environment (the scheduler executes the scalar evaluator's
    float-operation sequence exactly, and the observation arithmetic below
    matches :meth:`SplitState.to_vector` element for element) — the
    invariant episode-batched OSDS relies on.

    Requires the environment's stepping evaluator to be a
    :class:`~repro.runtime.batch.BatchPlanEvaluator` whose oracle supports
    vectorised part latencies (ground truth or profiles); see
    :meth:`supports`.
    """

    def __init__(self, env: SplitMDP, episodes: int) -> None:
        if episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {episodes}")
        if not self.supports(env):
            raise ValueError(
                "BatchSplitMDP needs a BatchPlanEvaluator with vectorised "
                "part latencies (ground-truth or profile oracle)"
            )
        self.env = env
        self.episodes = int(episodes)
        self._evaluator: BatchPlanEvaluator = env.evaluator  # type: ignore[assignment]
        self._scheduler: Optional[BatchVolumeScheduler] = None
        self._finish: Optional[np.ndarray] = None
        self._cuts: List[np.ndarray] = []
        self._t_seconds = 0.0

    @staticmethod
    def supports(env: SplitMDP) -> bool:
        """Whether ``env`` can be stepped in vectorised episode batches."""
        evaluator = env.evaluator
        return (
            isinstance(evaluator, BatchPlanEvaluator)
            and evaluator.supports_vectorized_stepping
        )

    # ------------------------------------------------------------------ #
    @property
    def num_volumes(self) -> int:
        return self.env.num_volumes

    def _observation(self) -> np.ndarray:
        """``(episodes, state_dim)`` observations; rows match the scalar env."""
        env = self.env
        n = len(env.devices)
        if self._finish is None:
            accumulated = np.zeros((self.episodes, n))
        else:
            accumulated = self._finish
        lat = accumulated / max(env.latency_scale_ms, 1e-6)
        volume = env.volumes[self._scheduler.volume_index]
        last = volume.last
        feats = np.array(
            [
                volume.output_height / max(env._max_height, 1),
                last.out_c / max(env._max_channels, 1),
                last.kernel / 7.0,
                last.stride / 2.0,
            ],
            dtype=np.float32,
        )
        return np.concatenate(
            [
                lat.astype(np.float32),
                np.broadcast_to(feats, (self.episodes, feats.size)),
            ],
            axis=1,
        )

    def reset(self, t_seconds: float = 0.0) -> np.ndarray:
        """Start a fresh round; returns the ``(episodes, state_dim)`` observations."""
        self._t_seconds = float(t_seconds)
        self._scheduler = BatchVolumeScheduler(
            self._evaluator,
            self.env.model,
            self.env.volumes,
            self.episodes,
            self._t_seconds,
        )
        self._finish = None
        self._cuts = []
        return self._observation()

    def step(
        self, raw_actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, bool, List[dict]]:
        """Apply one action per episode for the current volume.

        Returns ``(next_observations, rewards, done, infos)``; ``infos`` is
        one dict per episode, carrying ``end_to_end_ms``, ``decisions`` and
        the full ``result`` at the terminal step (plans are *not* built here
        — a caller that needs one builds it lazily from the decisions, which
        keeps the common non-improving episode cheap).
        """
        if self._scheduler is None:
            raise RuntimeError("step() called before reset()")
        if self._scheduler.done:
            raise RuntimeError("round already finished; call reset()")
        env = self.env
        scheduler = self._scheduler
        volume = env.volumes[scheduler.volume_index]
        raw_actions = np.asarray(raw_actions, dtype=np.float32).reshape(
            self.episodes, env.action_dim
        )
        cuts = map_action_to_cuts_batch(raw_actions, volume.output_height)
        self._cuts.append(cuts)
        self._finish = scheduler.process_volume(cuts)
        done = scheduler.done
        if not done:
            rewards = np.zeros(self.episodes)
            return self._observation(), rewards, False, [{} for _ in range(self.episodes)]

        # Terminal: schedule gather/head/result return for every episode.
        if env.model.head_layers:
            # Default head placement: the provider holding the largest share
            # of the last volume — np.argmax returns the first maximum, the
            # same tie-break as DistributionPlan.largest_share_device.
            edges = np.concatenate(
                [
                    np.zeros((self.episodes, 1), dtype=np.int64),
                    cuts,
                    np.full((self.episodes, 1), volume.output_height, dtype=np.int64),
                ],
                axis=1,
            )
            heads = np.argmax(np.diff(edges, axis=1), axis=1).astype(np.int64)
        else:
            heads = None
        results = scheduler.finalize(heads, ["distredge"] * self.episodes)
        rewards = np.empty(self.episodes)
        infos: List[dict] = []
        for e, result in enumerate(results):
            rewards[e] = env.reward_scale / max(result.end_to_end_ms, 1e-6)
            decisions = [
                SplitDecision(
                    cuts=tuple(int(c) for c in step_cuts[e]),
                    output_height=v.output_height,
                )
                for step_cuts, v in zip(self._cuts, env.volumes)
            ]
            infos.append(
                {
                    "end_to_end_ms": result.end_to_end_ms,
                    "decisions": decisions,
                    "result": result,
                }
            )
        next_obs = np.zeros((self.episodes, env.state_dim), dtype=np.float32)
        return next_obs, rewards, True, infos


__all__ = [
    "SplitState",
    "SplitAction",
    "SplitMDP",
    "BatchSplitMDP",
    "map_action_to_cuts",
    "map_action_to_cuts_batch",
]
