"""Tests for the DDPG agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ddpg import DDPGAgent, DDPGConfig


@pytest.fixture()
def agent(fast_ddpg_config):
    return DDPGAgent(state_dim=4, action_dim=2, config=fast_ddpg_config, seed=0)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = DDPGConfig()
        assert cfg.actor_lr == pytest.approx(1e-4)
        assert cfg.critic_lr == pytest.approx(1e-3)
        assert cfg.gamma == pytest.approx(0.99)
        assert cfg.batch_size == 64
        assert cfg.actor_hidden == (400, 200, 100)
        assert cfg.critic_hidden == (400, 200, 100, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            DDPGConfig(gamma=0.0)
        with pytest.raises(ValueError):
            DDPGConfig(batch_size=0)
        with pytest.raises(ValueError):
            DDPGConfig(tau=0.0)
        with pytest.raises(ValueError):
            DDPGConfig(noise_sigma=-1)


class TestAgent:
    def test_action_bounds(self, agent):
        state = np.random.default_rng(0).normal(size=4).astype(np.float32)
        for noise in (False, True):
            action = agent.act(state, noise=noise)
            assert action.shape == (2,)
            assert np.all(np.abs(action) <= 1.0)

    def test_deterministic_without_noise(self, agent):
        state = np.ones(4, dtype=np.float32)
        np.testing.assert_array_equal(agent.act(state), agent.act(state))

    def test_random_action_in_range(self, agent):
        action = agent.random_action()
        assert action.shape == (2,)
        assert np.all(np.abs(action) <= 1.0)

    def test_act_batch_matches_single_state(self, agent):
        states = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        batched = agent.act_batch(states)
        assert batched.shape == (3, 2)
        assert np.all(np.abs(batched) <= 1.0)
        # A batch of one is exactly the deterministic act() path.
        np.testing.assert_array_equal(agent.act_batch(states[:1])[0], agent.act(states[0]))

    def test_act_batch_applies_predrawn_noise(self, agent):
        states = np.zeros((2, 4), dtype=np.float32)
        noise = np.array([[0.0, 0.0], [5.0, -5.0]])
        actions = agent.act_batch(states, noise=noise)
        np.testing.assert_array_equal(actions[1], np.array([1.0, -1.0], dtype=np.float32))

    def test_draw_noise_skips_rng_when_sigma_zero(self, fast_ddpg_config):
        from dataclasses import replace

        quiet = DDPGAgent(4, 2, replace(fast_ddpg_config, noise_sigma=0.0), seed=5)
        before = quiet._rng.bit_generator.state["state"]["state"]
        noise = quiet.draw_noise()
        np.testing.assert_array_equal(noise, np.zeros(2))
        # Same gate as act(): sigma == 0 must not consume RNG state.
        assert quiet._rng.bit_generator.state["state"]["state"] == before

    def test_update_requires_warmup(self, agent):
        assert agent.update() is None

    def test_update_runs_after_warmup(self, agent, fast_ddpg_config):
        rng = np.random.default_rng(0)
        for _ in range(fast_ddpg_config.warmup_transitions + 4):
            s = rng.normal(size=4)
            a = rng.uniform(-1, 1, size=2)
            agent.remember(s, a, rng.random(), rng.normal(size=4), False)
        out = agent.update()
        assert out is not None
        critic_loss, actor_objective = out
        assert critic_loss >= 0.0
        assert np.isfinite(actor_objective)
        assert agent.updates == 1

    def test_learning_improves_on_simple_bandit(self):
        """One-step problem: reward = -|a - 0.5|; the policy should move
        towards 0.5 after training."""
        config = DDPGConfig(
            actor_hidden=(32, 32),
            critic_hidden=(32, 32),
            actor_lr=1e-3,
            critic_lr=3e-3,
            batch_size=32,
            warmup_transitions=32,
        )
        agent = DDPGAgent(state_dim=2, action_dim=1, config=config, seed=1)
        rng = np.random.default_rng(0)
        state = np.zeros(2, dtype=np.float32)
        initial = float(agent.act(state)[0])
        for _ in range(800):
            action = np.clip(agent.act(state, noise=True) + rng.normal(0, 0.3, 1), -1, 1)
            reward = -abs(float(action[0]) - 0.5)
            agent.remember(state, action, reward, state, True)
            agent.update()
        final = float(agent.act(state)[0])
        assert abs(final - 0.5) < abs(initial - 0.5) or abs(final - 0.5) < 0.2
        assert abs(final - 0.5) < 0.4

    def test_snapshot_restore_roundtrip(self, agent):
        state = np.ones(4, dtype=np.float32)
        snapshot = agent.snapshot()
        before = agent.act(state).copy()
        # Perturb the actor.
        agent.actor.weights[0] += 1.0
        assert not np.allclose(agent.act(state), before)
        agent.restore(snapshot)
        np.testing.assert_allclose(agent.act(state), before, atol=1e-6)

    def test_restore_rejects_mismatched_snapshot(self, agent):
        snapshot = agent.snapshot()
        with pytest.raises(ValueError):
            agent.restore({"actor": np.float32(0.0), "critic": snapshot["critic"]})

    def test_targets_and_acting_copy_are_independent_clones(self, agent):
        for net, target in ((agent.actor, agent.target_actor), (agent.critic, agent.target_critic)):
            np.testing.assert_array_equal(net.flat, target.flat)
            assert not np.shares_memory(net.flat, target.flat)
        acting = agent.actor_copy()
        np.testing.assert_array_equal(acting.flat, agent.actor.flat)
        assert not np.shares_memory(acting.flat, agent.actor.flat)

    def test_invalid_dims(self, fast_ddpg_config):
        with pytest.raises(ValueError):
            DDPGAgent(0, 2, config=fast_ddpg_config)


class TestInPlaceUpdateParity:
    """The in-place update must give the allocating reference's floats."""

    @staticmethod
    def _setup(name, fast_ddpg_config):
        from dataclasses import replace

        if name == "paper":
            return 20, 15, DDPGConfig(), 270
        # A ring smaller than the insertions, so sampling runs after wrap-around.
        return 4, 2, replace(fast_ddpg_config, buffer_capacity=40), 240

    @staticmethod
    def _flat(arrays):
        return np.concatenate([np.ravel(a) for a in arrays])

    @pytest.mark.parametrize("name", ["paper", "wrapping"])
    def test_matches_reference_update(self, name, fast_ddpg_config, reference_ddpg_update):
        state_dim, action_dim, config, insertions = self._setup(name, fast_ddpg_config)
        agent = DDPGAgent(state_dim, action_dim, config=config, seed=11)
        reference = reference_ddpg_update(state_dim, action_dim, config, 11)
        batches = []
        sample = agent.buffer.sample

        def recording_sample(batch_size):
            batch = sample(batch_size)
            batches.append(batch)
            return batch

        agent.buffer.sample = recording_sample
        rng = np.random.default_rng(5)
        updates = 0
        for _ in range(insertions):
            transition = (
                rng.normal(size=state_dim),
                rng.uniform(-1, 1, size=action_dim),
                float(rng.normal()),
                rng.normal(size=state_dim),
                bool(rng.random() < 0.3),
            )
            agent.remember(*transition)
            reference.remember(*transition)
            out, ref_out = agent.update(), reference.update()
            assert out == ref_out
            updates += out is not None
        assert updates >= 200
        assert len(batches) == len(reference.batches) == updates
        for batch, ref_batch in zip(batches, reference.batches):
            for column, ref_column in zip(batch, ref_batch):
                assert column.dtype == ref_column.dtype == np.float32
                assert np.array_equal(column, ref_column)

        for net in ("actor", "critic", "target_actor", "target_critic"):
            for p, q in zip(getattr(agent, net).parameters(), getattr(reference, net).parameters()):
                assert p.dtype == q.dtype and np.array_equal(p, q), net
        for opt in ("actor_optimizer", "critic_optimizer"):
            mine, ref = getattr(agent, opt), getattr(reference, opt)
            assert mine._t == ref._t == updates
            assert np.array_equal(self._flat(mine._m), self._flat(ref._m))
            assert np.array_equal(self._flat(mine._v), self._flat(ref._v))

        stored, ref_stored = agent.buffer.transitions, reference.buffer.transitions
        assert len(stored) == len(ref_stored) == min(insertions, config.buffer_capacity)
        for t, r in zip(stored, ref_stored):
            assert np.array_equal(t.state, r.state)
            assert np.array_equal(t.action, r.action)
            assert t.reward == r.reward
            assert np.array_equal(t.next_state, r.next_state)
            assert t.done == r.done
