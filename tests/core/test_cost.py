"""Tests for the Cp partition cost model (Eq. 3 / Eq. 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import PartitionCostModel, partition_score, random_split_decisions
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.utils.rng import as_rng


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="module")
def cost_model(model):
    return PartitionCostModel(model, num_devices=3, num_random_splits=10, seed=0)


class TestRandomSplitDecisions:
    def test_count_and_type(self):
        decisions = random_split_decisions(4, 32, 5, as_rng(0))
        assert len(decisions) == 5
        assert all(isinstance(d, SplitDecision) for d in decisions)
        assert all(sum(d.rows_per_device()) == 32 for d in decisions)

    def test_reproducible(self):
        a = random_split_decisions(3, 20, 4, as_rng(7))
        b = random_split_decisions(3, 20, 4, as_rng(7))
        assert [d.cuts for d in a] == [d.cuts for d in b]

    @given(
        seed=st.integers(0, 2**16),
        num_devices=st.sampled_from([1, 2, 3, 16]),
        height=st.integers(1, 60),
        count=st.integers(1, 12),
    )
    @settings(max_examples=40, derandomize=True)
    def test_stream_matches_inline_draw(self, seed, num_devices, height, count):
        """The draw order, including the all-dropped redraw, is pinned."""
        rng = as_rng(seed)
        expected = []
        for _ in range(count):
            fractions = rng.random(num_devices)
            drop = rng.random(num_devices) < 0.2
            fractions = np.where(drop, 0.0, fractions)
            if fractions.sum() <= 0:
                fractions[int(rng.integers(num_devices))] = 1.0
            expected.append(SplitDecision.from_fractions(fractions, height))
        drawn = random_split_decisions(num_devices, height, count, as_rng(seed))
        assert drawn == expected


class TestSampleCost:
    def test_single_device_has_no_overhead(self, model, cost_model):
        boundaries = model.single_volume_partition()
        volume = model.partition(boundaries)[0]
        decision = SplitDecision.single_device(0, 3, volume.output_height)
        cost = cost_model.sample_cost(boundaries, [decision])
        assert cost.operations == pytest.approx(model.backbone_macs)
        assert cost.normalized_operations == pytest.approx(1.0)

    def test_equal_split_increases_operations(self, model, cost_model):
        boundaries = model.single_volume_partition()
        volume = model.partition(boundaries)[0]
        decision = SplitDecision.equal(3, volume.output_height)
        cost = cost_model.sample_cost(boundaries, [decision])
        assert cost.normalized_operations > 1.0

    def test_layer_by_layer_increases_transmission(self, model, cost_model):
        coarse = [0, 6, model.num_spatial_layers]
        fine = model.layer_by_layer_partition()

        def mean_transmission(boundaries):
            rng = as_rng(0)
            volumes = model.partition(boundaries)
            total = 0.0
            for _ in range(5):
                decisions = [
                    random_split_decisions(3, v.output_height, 1, rng)[0] for v in volumes
                ]
                total += cost_model.sample_cost(boundaries, decisions).transmission_bytes
            return total

        assert mean_transmission(fine) > mean_transmission(coarse)

    def test_score_interpolates_alpha(self, model, cost_model):
        boundaries = [0, 6, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        decisions = [SplitDecision.equal(3, v.output_height) for v in volumes]
        cost = cost_model.sample_cost(boundaries, decisions)
        assert cost.score(0.0) == pytest.approx(cost.normalized_operations)
        assert cost.score(1.0) == pytest.approx(cost.normalized_transmission)
        mid = cost.score(0.5)
        assert min(cost.normalized_operations, cost.normalized_transmission) <= mid
        assert mid <= max(cost.normalized_operations, cost.normalized_transmission)

    def test_decision_count_mismatch(self, model, cost_model):
        with pytest.raises(ValueError):
            cost_model.sample_cost([0, model.num_spatial_layers], [])


class TestMeanScore:
    def test_deterministic_given_seed(self, model):
        a = PartitionCostModel(model, 3, num_random_splits=8, seed=1).mean_score([0, 6, 12], 0.75)
        b = PartitionCostModel(model, 3, num_random_splits=8, seed=1).mean_score([0, 6, 12], 0.75)
        assert a == pytest.approx(b)

    def test_same_random_set_across_candidates(self, model):
        """Two calls on the same model instance reuse the same Rr_s draw."""
        cm = PartitionCostModel(model, 3, num_random_splits=6, seed=2)
        s1 = cm.mean_score([0, 6, 12], 0.75)
        s2 = cm.mean_score([0, 6, 12], 0.75)
        assert s1 == pytest.approx(s2)

    def test_alpha_validated(self, model, cost_model):
        with pytest.raises(ValueError):
            cost_model.mean_score([0, 12], 1.5)

    def test_partition_score_wrapper(self, model):
        score = partition_score(model, [0, 6, 12], num_devices=3, num_random_splits=5)
        assert score > 0

    def test_invalid_constructor_args(self, model):
        with pytest.raises(ValueError):
            PartitionCostModel(model, 0)
        with pytest.raises(ValueError):
            PartitionCostModel(model, 2, num_random_splits=0)


class TestScoreCache:
    """The mean-Cp memo eliminates LC-PSS re-voting without moving a bit."""

    def test_second_call_is_a_hit_with_identical_value(self, model):
        cm = PartitionCostModel(model, 3, num_random_splits=6, seed=2)
        first = cm.mean_score([0, 6, 12], 0.75)
        assert cm.cache_info()["misses"] == 1
        second = cm.mean_score([0, 6, 12], 0.75)
        assert cm.cache_info()["hits"] == 1
        assert second == first  # bit-identical, not just approximately equal

    def test_key_distinguishes_boundaries_and_alpha(self, model):
        cm = PartitionCostModel(model, 3, num_random_splits=6, seed=2)
        cm.mean_score([0, 6, 12], 0.75)
        cm.mean_score([0, 4, 12], 0.75)
        cm.mean_score([0, 6, 12], 0.5)
        assert cm.cache_info()["misses"] == 3
        assert cm.cache_info()["hits"] == 0

    def test_cached_value_matches_uncached_model(self, model):
        cached = PartitionCostModel(model, 3, num_random_splits=6, seed=2)
        cached.mean_score([0, 6, 12], 0.75)  # warm the cache
        fresh = PartitionCostModel(model, 3, num_random_splits=6, seed=2)
        assert cached.mean_score([0, 6, 12], 0.75) == fresh.mean_score([0, 6, 12], 0.75)


#: Models the array-scoring parity property draws from, built once.
PARITY_MODELS = {
    name: model_zoo.get(name)
    for name in ("small_vgg", "tiny_cnn", "vgg16", "resnet50", "yolov2", "inception_v3")
}


@st.composite
def scoring_cases(draw):
    model = PARITY_MODELS[draw(st.sampled_from(sorted(PARITY_MODELS)))]
    n = model.num_spatial_layers
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 8)))
    return (
        model,
        [0, *sorted(cuts), n],
        draw(st.sampled_from([1, 2, 3, 4, 16])),
        draw(st.sampled_from([1, 7, 30])),
        draw(st.sampled_from([0.0, 0.75, 1.0])),
        draw(st.integers(0, 1000)),
    )


class TestArrayScoringParity:
    """The array ``mean_score`` returns the per-sample loop's exact floats."""

    @given(case=scoring_cases())
    @settings(max_examples=100, derandomize=True)
    def test_mean_score_equals_scalar_loop(self, case, scalar_mean_score):
        model, boundaries, num_devices, num_random_splits, alpha, seed = case
        cost_model = PartitionCostModel(
            model, num_devices, num_random_splits=num_random_splits, seed=seed
        )
        assert cost_model.mean_score(boundaries, alpha) == scalar_mean_score(
            cost_model, boundaries, alpha
        )

    def test_mean_score_builds_no_split_parts(self, model, monkeypatch):
        """Scoring runs on arrays; only ``sample_cost`` builds split parts."""
        import repro.core.cost as cost

        def forbidden(*args):
            raise AssertionError("mean_score called split_volume")

        monkeypatch.setattr(cost, "split_volume", forbidden)
        cm = PartitionCostModel(model, 3, num_random_splits=5, seed=0)
        assert cm.mean_score([0, 6, model.num_spatial_layers], 0.75) > 0
