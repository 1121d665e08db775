"""Tests for the NumPy MLP / Adam toolkit (gradient correctness included)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.networks import CHUNK, MLP, Adam


def numerical_gradient(f, x, eps=1e-4):
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestMLPForward:
    def test_output_shape(self):
        net = MLP([4, 8, 3], seed=0)
        out = net.forward(np.zeros((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_single_vector_promoted(self):
        net = MLP([4, 8, 2], seed=0)
        assert net.forward(np.zeros(4, dtype=np.float32)).shape == (1, 2)

    def test_tanh_output_bounded(self):
        net = MLP([3, 16, 4], output_activation="tanh", seed=1)
        out = net.forward(np.random.default_rng(0).normal(size=(10, 3)) * 100)
        assert np.all(np.abs(out) <= 1.0)

    def test_deterministic_init(self):
        a = MLP([4, 8, 2], seed=5).forward(np.ones((1, 4)))
        b = MLP([4, 8, 2], seed=5).forward(np.ones((1, 4)))
        np.testing.assert_array_equal(a, b)

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            MLP([4])
        with pytest.raises(ValueError):
            MLP([4, 2], output_activation="relu")


class TestMLPBackward:
    def test_weight_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        net = MLP([3, 6, 2], seed=2)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        target = rng.normal(size=(4, 2)).astype(np.float32)

        def loss():
            out = net.forward(x)
            return float(np.sum((out - target) ** 2))

        out = net.forward(x, cache=True)
        grads, _ = net.backward(2.0 * (out - target))
        params = net.parameters()
        for p, g in zip(params, grads):
            numeric = numerical_gradient(loss, p)
            np.testing.assert_allclose(g, numeric, rtol=1e-2, atol=1e-2)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        net = MLP([3, 5, 1], seed=3)
        x = rng.normal(size=(1, 3)).astype(np.float32)

        def value():
            return float(net.forward(x).sum())

        net.forward(x, cache=True)
        _, grad_in = net.backward(np.ones((1, 1), dtype=np.float32))
        numeric = numerical_gradient(value, x)
        np.testing.assert_allclose(grad_in, numeric, rtol=1e-2, atol=1e-2)

    def test_backward_without_forward_raises(self):
        net = MLP([2, 3, 1], seed=0)
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 1)))


class TestParameterManagement:
    def test_copy_from_matches_outputs(self):
        a = MLP([3, 8, 2], seed=0)
        b = MLP([3, 8, 2], seed=99)
        b.copy_from(a)
        x = np.ones((2, 3), dtype=np.float32)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_soft_update_moves_towards_source(self):
        a = MLP([3, 4, 1], seed=0)
        b = MLP([3, 4, 1], seed=1)
        before = np.abs(a.weights[0] - b.weights[0]).sum()
        b.soft_update_from(a, tau=0.5)
        after = np.abs(a.weights[0] - b.weights[0]).sum()
        assert after < before

    def test_soft_update_tau_one_copies(self):
        a = MLP([3, 4, 1], seed=0)
        b = MLP([3, 4, 1], seed=1)
        b.soft_update_from(a, tau=1.0)
        np.testing.assert_allclose(a.weights[0], b.weights[0], rtol=1e-6)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            MLP([2, 2], seed=0).soft_update_from(MLP([2, 2], seed=1), tau=2.0)

    def test_set_parameters_shape_check(self):
        net = MLP([3, 4, 1], seed=0)
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros((2, 2))])


class TestFlatLayout:
    def test_parameters_are_views_of_one_vector(self):
        net = MLP([3, 4, 2], seed=0)
        assert net.flat.dtype == np.float32
        assert net.flat.size == sum(p.size for p in net.parameters())
        for p in net.parameters():
            assert np.shares_memory(p, net.flat)
        np.testing.assert_array_equal(
            net.flat, np.concatenate([p.ravel() for p in net.parameters()])
        )

    def test_set_parameters_copies_into_the_views(self):
        net = MLP([3, 4, 2], seed=0)
        views = net.parameters()
        loaded = [np.full(p.shape, 0.25) for p in views]
        net.set_parameters(loaded)
        assert all(a is b for a, b in zip(net.parameters(), views))
        assert np.all(net.flat == np.float32(0.25))

    def test_clone_is_an_independent_copy(self):
        net = MLP([3, 5, 2], output_activation="tanh", seed=4)
        twin = net.clone()
        x = np.ones((2, 3), dtype=np.float32)
        np.testing.assert_array_equal(net.forward(x), twin.forward(x))
        twin.weights[0] += 1.0
        assert not np.shares_memory(net.flat, twin.flat)
        assert not np.array_equal(net.forward(x), twin.forward(x))
        assert twin.grad is None

    def test_copy_from_rejects_other_architecture(self):
        with pytest.raises(ValueError):
            MLP([3, 4, 1], seed=0).copy_from(MLP([3, 5, 1], seed=0))


class TestInPlacePasses:
    def test_returned_arrays_survive_later_calls(self):
        net = MLP([3, 6, 2], seed=1)
        x = np.ones((4, 3), dtype=np.float32)
        out = net.forward(x, cache=True)
        grads, grad_in = net.backward(np.ones_like(out))
        kept = [out.copy(), grad_in.copy()] + [g.copy() for g in grads]
        out2 = net.forward(2 * x, cache=True)
        grads2, grad_in2 = net.backward(np.full_like(out2, 3.0))
        for before, after in zip(kept, [out, grad_in] + grads):
            np.testing.assert_array_equal(before, after)
        assert not np.array_equal(grads2[0], grads[0])

    def test_skipped_results_match_full_backward(self):
        net = MLP([3, 6, 5, 2], output_activation="tanh", seed=2)
        x = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)
        g = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
        net.forward(x, cache=True)
        full_grads, full_in = net.backward(g)
        full_grads = [a.copy() for a in full_grads]
        grads, no_in = net.backward(g, input_grad=False)
        assert no_in is None
        for a, b in zip(full_grads, grads):
            np.testing.assert_array_equal(a, b)
        flat_before = net.grad
        no_grads, grad_in = net.backward(g, param_grads=False)
        assert no_grads is None and net.grad is flat_before
        np.testing.assert_array_equal(full_in, grad_in)

    def test_relu_mask_multiplies(self):
        """The mask multiplies (not np.where), as the allocating backward
        did: an infinite gradient through a dead unit becomes NaN, not 0."""
        net = MLP([1, 2, 1], seed=0)
        net.set_parameters(
            [np.full((1, 2), -1.0), np.zeros(2), np.ones((2, 1)), np.zeros(1)]
        )
        net.forward(np.ones((3, 1), dtype=np.float32), cache=True)
        with np.errstate(invalid="ignore"):
            grads, _ = net.backward(np.full((3, 1), -np.inf, dtype=np.float32))
        assert np.all(np.isnan(grads[1]))

    def test_soft_update_matches_expression(self):
        a = MLP([3, 300, 300], seed=0)
        b = MLP([3, 300, 300], seed=1)
        assert b.flat.size > 2 * CHUNK  # several chunks, including a short one
        expected = (0.01 * a.flat + (1.0 - 0.01) * b.flat).astype(np.float32)
        b.soft_update_from(a, tau=0.01)
        np.testing.assert_array_equal(b.flat, expected)


class TestAdam:
    def test_chunked_step_matches_plain_expression(self):
        """One Adam step per call, equal to the textbook expression under the
        running NumPy's promotion rules, across chunk boundaries."""
        rng = np.random.default_rng(0)
        n = 2 * CHUNK + 123
        p = rng.normal(size=n).astype(np.float32)
        ref_p, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        adam = Adam(learning_rate=1e-3)
        for t in range(1, 4):
            g = rng.normal(size=n).astype(np.float32)
            adam.step([p], [g])
            lr_t = 1e-3 * np.sqrt(1 - 0.999**t) / (1 - 0.9**t)
            m *= 0.9
            m += (1 - 0.9) * g
            v *= 0.999
            v += (1 - 0.999) * (g * g)
            ref_p -= lr_t * m / (np.sqrt(v) + 1e-8)
            np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(adam._m[0], m)
        np.testing.assert_array_equal(adam._v[0], v)

    def test_gradient_dtype_mismatch(self):
        with pytest.raises(ValueError):
            Adam().step([np.zeros(2, dtype=np.float32)], [np.zeros(2)])

    def test_minimises_quadratic(self):
        params = [np.array([5.0, -3.0])]
        adam = Adam(learning_rate=0.1)
        for _ in range(500):
            grads = [2 * params[0]]
            adam.step(params, grads)
        assert np.all(np.abs(params[0]) < 0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Adam().step([np.zeros(2)], [])

    def test_step_changes_parameters(self):
        params = [np.ones(3)]
        Adam(learning_rate=0.01).step(params, [np.ones(3)])
        assert not np.allclose(params[0], 1.0)
