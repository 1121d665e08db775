"""DDPG: Deep Deterministic Policy Gradient agent (Lillicrap et al. 2015).

This is the continuous-action actor-critic algorithm the paper selects for
the layer-volume splitter (Section IV-C2): discrete split decisions would
need an action space whose dimension changes per volume and explodes with
``H_l``, so the agent instead emits ``|D|-1`` continuous values in [-1, 1]
that are later sorted and mapped onto integer cut points (Eq. 9).

Hyper-parameter defaults follow the paper: actor learning rate 1e-4, critic
learning rate 1e-3, discount 0.99, minibatch 64, Gaussian exploration noise
with sigma^2 = 0.1, actor hidden layers {400, 200, 100}, critic hidden layers
{400, 200, 100, 100}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.networks import MLP, Adam
from repro.core.replay import ReplayBuffer, Transition
from repro.utils.rng import SeedLike, as_rng, spawn_rng


@dataclass
class DDPGConfig:
    """Hyper-parameters of the DDPG agent (paper defaults)."""

    actor_hidden: Tuple[int, ...] = (400, 200, 100)
    critic_hidden: Tuple[int, ...] = (400, 200, 100, 100)
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    batch_size: int = 64
    noise_sigma: float = np.sqrt(0.1)
    tau: float = 0.01
    buffer_capacity: int = 100_000
    warmup_transitions: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


class DDPGAgent:
    """Actor-critic agent with target networks and experience replay.

    The actor maps a state to an action in ``[-1, 1]^action_dim`` (tanh
    output, matching the action-boundary ``[A, B]`` of Eq. 9); the critic
    scores ``(state, action)`` pairs.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: Optional[DDPGConfig] = None,
        seed: SeedLike = 0,
    ) -> None:
        if state_dim < 1 or action_dim < 1:
            raise ValueError("state_dim and action_dim must be >= 1")
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.config = config or DDPGConfig()
        rng = as_rng(seed)
        # Four streams, as when each target drew its own init: the spawn
        # advances ``rng``, which later seeds the replay buffer.
        net_rngs = spawn_rng(rng, 4)
        self._rng = rng

        cfg = self.config
        self.actor = MLP(
            [state_dim, *cfg.actor_hidden, action_dim], output_activation="tanh", seed=net_rngs[0]
        )
        self.critic = MLP([state_dim + action_dim, *cfg.critic_hidden, 1], seed=net_rngs[1])
        self.target_actor = self.actor.clone()
        self.target_critic = self.critic.clone()

        self.actor_optimizer = Adam(learning_rate=cfg.actor_lr)
        self.critic_optimizer = Adam(learning_rate=cfg.critic_lr)
        self.buffer = ReplayBuffer(capacity=cfg.buffer_capacity, seed=rng.integers(2**31 - 1))
        self.updates = 0

    # ------------------------------------------------------------------ #
    def act(self, state: np.ndarray, noise: bool = False) -> np.ndarray:
        """Deterministic policy output, optionally with Gaussian exploration noise.

        The result is clipped to the actor's [-1, 1] range so the action
        mapping (Eq. 9) always receives in-range values.
        """
        action = self.actor.forward(state)[0]
        if noise and self.config.noise_sigma > 0:
            action = action + self._rng.normal(0.0, self.config.noise_sigma, size=action.shape)
        return np.clip(action, -1.0, 1.0).astype(np.float32)

    def act_batch(self, states: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Policy output for a whole batch of states in one forward pass.

        This is the batch-path counterpart of :meth:`act`: the online
        controller rolls several candidate episodes in lockstep and queries
        the actor once per step instead of once per candidate.  ``noise``
        (optional, same shape as the output) is *pre-drawn* exploration noise
        added before clipping; passing it explicitly keeps the caller in
        charge of the RNG draw order, which :meth:`act`'s internal draws
        would otherwise entangle with the batching layout.
        """
        actions = self.actor.forward(np.atleast_2d(np.asarray(states, dtype=np.float32)))
        if noise is not None:
            actions = actions + noise
        return np.clip(actions, -1.0, 1.0).astype(np.float32)

    def draw_noise(self) -> np.ndarray:
        """One exploration-noise sample (the same draw :meth:`act` performs).

        Mirrors :meth:`act`'s gate exactly: with ``noise_sigma == 0`` no RNG
        state is consumed, so callers pre-drawing noise do not shift the
        agent's random stream relative to the sequential ``act`` path.
        """
        if self.config.noise_sigma <= 0:
            return np.zeros(self.action_dim)
        return self._rng.normal(0.0, self.config.noise_sigma, size=self.action_dim)

    def actor_copy(self) -> MLP:
        """A detached copy of the actor network (current parameters).

        Episode-batched OSDS acts through such a copy, refreshed only at
        policy-refresh boundaries: within a refresh window the acting policy
        is frozen, which decouples action selection from the (strictly
        sequential) replay updates and is what allows whole episode rounds
        to roll out in lockstep with bit-identical results at any execution
        width.  The copy forwards through the identical float path as
        :meth:`act`.
        """
        return self.actor.clone()

    def random_action(self) -> np.ndarray:
        """Uniform random action in [-1, 1] (pure exploration)."""
        return self._rng.uniform(-1.0, 1.0, size=self.action_dim).astype(np.float32)

    def remember(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        """Store a transition (with the raw, unsorted action)."""
        self.buffer.add(
            Transition(
                state=np.asarray(state, dtype=np.float32),
                action=np.asarray(action, dtype=np.float32),
                reward=float(reward),
                next_state=np.asarray(next_state, dtype=np.float32),
                done=bool(done),
            )
        )

    # ------------------------------------------------------------------ #
    def update(self) -> Optional[Tuple[float, float]]:
        """One gradient step on critic and actor plus target soft-updates.

        Returns ``(critic_loss, actor_objective)`` or ``None`` when the
        replay buffer has not reached the warm-up size yet.
        """
        cfg = self.config
        if len(self.buffer) < cfg.warmup_transitions:
            return None
        states, actions, rewards, next_states, dones = self.buffer.sample(cfg.batch_size)
        batch = states.shape[0]

        # --- critic update: y = r + gamma * Q'(s', mu'(s')) (0 at terminal)
        next_actions = self.target_actor.forward(next_states)
        target_q = self.target_critic.forward(
            np.concatenate([next_states, next_actions], axis=1)
        )
        y = rewards + cfg.gamma * (1.0 - dones) * target_q
        critic_in = np.concatenate([states, actions], axis=1)
        q = self.critic.forward(critic_in, cache=True)
        td_error = q - y
        critic_loss = float(np.mean(td_error**2))
        grad_q = (2.0 / batch) * td_error
        self.critic.backward(grad_q, input_grad=False)
        self.critic_optimizer.step([self.critic.flat], [self.critic.grad])

        # --- actor update: maximise Q(s, mu(s)) => gradient ascent
        actor_actions = self.actor.forward(states, cache=True)
        critic_in2 = np.concatenate([states, actor_actions], axis=1)
        q_actor = self.critic.forward(critic_in2, cache=True)
        actor_objective = float(np.mean(q_actor))
        # dJ/da through the critic; only the action part of the input grad.
        _, grad_input = self.critic.backward(
            np.full_like(q_actor, 1.0 / batch), param_grads=False
        )
        grad_action = grad_input[:, self.state_dim :]
        # Ascend: pass -dJ/da as the "loss" gradient to the actor.
        self.actor.backward(-grad_action, input_grad=False)
        self.actor_optimizer.step([self.actor.flat], [self.actor.grad])

        # --- target networks
        self.target_actor.soft_update_from(self.actor, cfg.tau)
        self.target_critic.soft_update_from(self.critic, cfg.tau)
        self.updates += 1
        return critic_loss, actor_objective

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Copy of the actor's and critic's flat parameter vectors (used to
        store the best policy)."""
        return {"actor": self.actor.flat.copy(), "critic": self.critic.flat.copy()}

    def restore(self, snapshot: dict) -> None:
        """Restore parameters produced by :meth:`snapshot`."""
        for net, flat in ((self.actor, snapshot["actor"]), (self.critic, snapshot["critic"])):
            if np.shape(flat) != net.flat.shape:
                raise ValueError("snapshot does not match the agent's networks")
            np.copyto(net.flat, flat)
        self.target_actor.copy_from(self.actor)
        self.target_critic.copy_from(self.critic)


__all__ = ["DDPGConfig", "DDPGAgent"]
