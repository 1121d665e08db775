"""Experience replay buffer for DDPG (Algorithm 2, lines 18-19).

Column layout.  The buffer stores transitions as columns, one row per ring
slot: states, actions and next states as float32 arrays, rewards as float64
(a :class:`Transition`'s reward is a Python float) and done flags as bool;
rewards and dones keep a trailing axis of 1.  :meth:`ReplayBuffer.sample`
gathers a minibatch with one fancy index per column and casts rewards and
dones to ``(batch, 1)`` float32, the values stacking the transitions one by
one gives.  Columns start small and double up to ``capacity`` rows, so a
large capacity costs no memory until it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng

#: Rows the columns are created with; they double as the buffer fills.
INITIAL_ROWS = 256


@dataclass(frozen=True)
class Transition:
    """One MDP transition ``(s, a, r, s', done)``.

    ``action`` stores the *raw* actor output (before sorting/mapping), as in
    Algorithm 2 line 18, so that the critic learns in the space the actor
    produces.
    """

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity circular replay buffer with uniform sampling."""

    def __init__(self, capacity: int = 100_000, seed: SeedLike = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rng = as_rng(seed)
        #: ``states, actions, rewards, next_states, dones``; created by the
        #: first :meth:`add`, which fixes the state and action shapes.
        self._columns: List[np.ndarray] = []
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """The stored transitions in insertion order (oldest first up to the
        wrap point).  Exposed for replay-consistency assertions: two training
        runs that fed identical transitions in identical order have equal
        buffers, which the episode-batched OSDS tests check field by field."""
        if not self._columns:
            return ()
        states, actions, rewards, next_states, dones = self._columns
        return tuple(
            Transition(
                state=states[i].copy(),
                action=actions[i].copy(),
                reward=float(rewards[i, 0]),
                next_state=next_states[i].copy(),
                done=bool(dones[i, 0]),
            )
            for i in range(self._size)
        )

    def _allocate(self, transition: Transition, rows: int) -> None:
        state_shape = np.shape(transition.state)
        self._columns = [
            np.empty((rows, *state_shape), dtype=np.float32),
            np.empty((rows, *np.shape(transition.action)), dtype=np.float32),
            np.empty((rows, 1), dtype=np.float64),
            np.empty((rows, *state_shape), dtype=np.float32),
            np.empty((rows, 1), dtype=bool),
        ]

    def _grow(self) -> None:
        rows = min(self.capacity, 2 * len(self._columns[0]))
        grown = []
        for column in self._columns:
            bigger = np.empty((rows, *column.shape[1:]), dtype=column.dtype)
            bigger[: self._size] = column[: self._size]
            grown.append(bigger)
        self._columns = grown

    def add(self, transition: Transition) -> None:
        """Insert a transition, overwriting the oldest once at capacity."""
        if not self._columns:
            self._allocate(transition, min(self.capacity, INITIAL_ROWS))
        if self._size < self.capacity:
            slot = self._size
            if slot == len(self._columns[0]):
                self._grow()
            self._size += 1
        else:
            slot = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
        states, actions, rewards, next_states, dones = self._columns
        states[slot] = transition.state
        actions[slot] = transition.action
        rewards[slot, 0] = transition.reward
        next_states[slot] = transition.next_state
        dones[slot, 0] = bool(transition.done)

    def sample(
        self, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample a uniform minibatch as stacked float32 arrays.

        Returns ``(states, actions, rewards, next_states, dones)`` where
        rewards and dones have shape ``(batch, 1)``.
        """
        if not self._size:
            raise ValueError("cannot sample from an empty replay buffer")
        batch_size = min(batch_size, self._size)
        indices = self._rng.integers(0, self._size, size=batch_size)
        states, actions, rewards, next_states, dones = self._columns
        return (
            states[indices],
            actions[indices],
            rewards[indices].astype(np.float32),
            next_states[indices],
            dones[indices].astype(np.float32),
        )


__all__ = ["Transition", "ReplayBuffer"]
