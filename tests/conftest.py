"""Shared fixtures for the test suite.

All planning-related fixtures use deliberately small models, clusters and
episode counts so the whole suite runs in a few minutes; the paper-scale
settings are exercised by the benchmark harness instead.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.cost import random_split_decisions
from repro.core.ddpg import DDPGConfig
from repro.core.osds import OSDSConfig
from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.execution import ModelExecutor
from repro.runtime.evaluator import PlanEvaluator
from repro.utils.rng import as_rng

# A global hypothesis profile keeping property tests quick and deadline-free
# (the NumPy conv reference can be slow on the first JIT-less call).
settings.register_profile("repro", max_examples=25, deadline=None)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Models
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_model():
    """A 4-spatial-layer CNN for numerical tests."""
    return model_zoo.tiny_cnn(32)


@pytest.fixture(scope="session")
def small_model():
    """The reduced VGG used for planner tests (8 conv + 4 pool layers)."""
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="session")
def vgg16_model():
    """Full VGG-16 layer configuration (used config-only, never executed)."""
    return model_zoo.vgg16()


@pytest.fixture(scope="session")
def scalar_mean_score():
    """Scalar reference of ``PartitionCostModel.mean_score``: the per-sample loop.

    Draws one decision per volume per sample with
    :func:`random_split_decisions`, scores each sample with ``sample_cost``
    and sums the scores sequentially — the order the array path must match
    float for float.
    """

    def mean_score(cost_model, boundaries, alpha):
        rng = as_rng(cost_model.seed)
        volumes = cost_model.model.partition(list(boundaries))
        total = 0.0
        for _ in range(cost_model.num_random_splits):
            decisions = [
                random_split_decisions(cost_model.num_devices, v.output_height, 1, rng)[0]
                for v in volumes
            ]
            total += cost_model.sample_cost(boundaries, decisions).score(alpha)
        return total / cost_model.num_random_splits

    return mean_score


@pytest.fixture(scope="session")
def tiny_executor(tiny_model):
    return ModelExecutor(tiny_model, seed=3)


@pytest.fixture(scope="session")
def small_executor(small_model):
    return ModelExecutor(small_model, seed=3)


# --------------------------------------------------------------------------- #
# Clusters / networks
# --------------------------------------------------------------------------- #
@pytest.fixture()
def hetero_cluster():
    """Two fast and two slow providers at a common bandwidth."""
    return make_cluster([("xavier", 200), ("xavier", 200), ("nano", 200), ("nano", 200)])


@pytest.fixture()
def mixed_cluster():
    """One provider of each type with heterogeneous bandwidths."""
    return make_cluster([("xavier", 300), ("tx2", 200), ("nano", 100), ("pi3", 50)])


@pytest.fixture()
def duo_cluster():
    """Two providers (keeps planner tests fast)."""
    return make_cluster([("xavier", 200), ("nano", 200)])


@pytest.fixture()
def constant_network(hetero_cluster):
    return NetworkModel.constant_from_devices(hetero_cluster)


@pytest.fixture()
def duo_network(duo_cluster):
    return NetworkModel.constant_from_devices(duo_cluster)


@pytest.fixture()
def evaluator(hetero_cluster, constant_network):
    return PlanEvaluator(hetero_cluster, constant_network)


@pytest.fixture()
def duo_evaluator(duo_cluster, duo_network):
    return PlanEvaluator(duo_cluster, duo_network)


# --------------------------------------------------------------------------- #
# Fast algorithm configurations
# --------------------------------------------------------------------------- #
@pytest.fixture()
def fast_ddpg_config():
    """Small networks so each update costs microseconds."""
    return DDPGConfig(actor_hidden=(32, 32), critic_hidden=(32, 32), warmup_transitions=16)


@pytest.fixture()
def fast_osds_config(fast_ddpg_config):
    return OSDSConfig(max_episodes=8, ddpg=fast_ddpg_config, seed=0)
