"""Tests for the replay buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.replay import INITIAL_ROWS, ReplayBuffer, Transition


def make_transition(i: int) -> Transition:
    return Transition(
        state=np.full(3, float(i), dtype=np.float32),
        action=np.full(2, float(i), dtype=np.float32),
        reward=float(i),
        next_state=np.full(3, float(i + 1), dtype=np.float32),
        done=i % 2 == 0,
    )


class TestReplayBuffer:
    def test_add_and_len(self):
        buffer = ReplayBuffer(capacity=10)
        for i in range(4):
            buffer.add(make_transition(i))
        assert len(buffer) == 4

    def test_capacity_wraps_around(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(7):
            buffer.add(make_transition(i))
        assert len(buffer) == 3
        states, _, rewards, _, _ = buffer.sample(3)
        assert rewards.max() >= 4  # old entries were overwritten

    def test_sample_shapes(self):
        buffer = ReplayBuffer(capacity=100, seed=0)
        for i in range(20):
            buffer.add(make_transition(i))
        states, actions, rewards, next_states, dones = buffer.sample(8)
        assert states.shape == (8, 3)
        assert actions.shape == (8, 2)
        assert rewards.shape == (8, 1)
        assert next_states.shape == (8, 3)
        assert dones.shape == (8, 1)
        assert states.dtype == np.float32

    def test_sample_clipped_to_size(self):
        buffer = ReplayBuffer(capacity=100)
        buffer.add(make_transition(0))
        states, *_ = buffer.sample(64)
        assert states.shape[0] == 1

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer().sample(4)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_done_flag_encoding(self):
        buffer = ReplayBuffer(seed=1)
        buffer.add(make_transition(0))  # done=True
        _, _, _, _, dones = buffer.sample(1)
        assert dones[0, 0] == 1.0

    def test_sampling_deterministic_per_seed(self):
        def collect(seed):
            buffer = ReplayBuffer(seed=seed)
            for i in range(10):
                buffer.add(make_transition(i))
            return buffer.sample(5)[2]

        np.testing.assert_array_equal(collect(3), collect(3))


class TestColumns:
    def test_columns_grow_instead_of_preallocating(self):
        buffer = ReplayBuffer(capacity=100_000)
        for i in range(INITIAL_ROWS + 1):
            buffer.add(make_transition(i))
        rows = len(buffer._columns[0])
        assert INITIAL_ROWS < rows <= 2 * INITIAL_ROWS

    def test_transitions_in_slot_order_after_wrap(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(5):
            buffer.add(make_transition(i))
        # Slots 0 and 1 were overwritten by transitions 3 and 4.
        assert [t.reward for t in buffer.transitions] == [3.0, 4.0, 2.0]
        third = buffer.transitions[2]
        assert isinstance(third.reward, float) and third.done is True
        np.testing.assert_array_equal(third.state, make_transition(2).state)

    def test_sample_equals_stacked_transitions(self):
        buffer = ReplayBuffer(capacity=50, seed=4)
        for i in range(80):
            buffer.add(make_transition(i))
        stored = buffer.transitions
        # The rows the buffer is about to draw, from a copy of its generator.
        probe = np.random.default_rng()
        probe.bit_generator.state = buffer._rng.bit_generator.state
        rows = probe.integers(0, len(stored), size=16)
        states, actions, rewards, next_states, dones = buffer.sample(16)
        np.testing.assert_array_equal(states, np.stack([stored[i].state for i in rows]))
        np.testing.assert_array_equal(actions, np.stack([stored[i].action for i in rows]))
        np.testing.assert_array_equal(
            rewards, np.array([[stored[i].reward] for i in rows], dtype=np.float32)
        )
        np.testing.assert_array_equal(
            next_states, np.stack([stored[i].next_state for i in rows])
        )
        np.testing.assert_array_equal(
            dones, np.array([[1.0 if stored[i].done else 0.0] for i in rows], dtype=np.float32)
        )
