"""Tests for LC-PSS (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.partitioner import LCPSS
from repro.nn import model_zoo


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


class TestLCPSS:
    def test_boundaries_are_valid_partition(self, model):
        result = LCPSS(model, num_devices=3, alpha=0.75, num_random_splits=8, seed=0).search()
        bounds = result.boundaries
        assert bounds[0] == 0 and bounds[-1] == model.num_spatial_layers
        assert bounds == sorted(set(bounds))
        # Must be usable directly as a partition scheme.
        model.partition(bounds)

    def test_alpha_zero_gives_fine_partition(self, model):
        """alpha = 0 ignores transmission, so the search keeps cutting until
        the recomputation overhead is gone (near layer-by-layer, paper)."""
        result = LCPSS(model, num_devices=3, alpha=0.0, num_random_splits=6, seed=0).search()
        assert result.num_volumes >= model.num_spatial_layers // 2
        # With alpha=0 the score is the normalised operation count; the final
        # partition removes essentially all halo recomputation.
        assert result.score == pytest.approx(1.0, abs=0.02)

    def test_alpha_one_gives_coarse_partition(self, model):
        result = LCPSS(model, num_devices=3, alpha=1.0, num_random_splits=6, seed=0).search()
        assert result.num_volumes <= 3

    def test_intermediate_alpha_between_extremes(self, model):
        fine = LCPSS(model, num_devices=3, alpha=0.0, num_random_splits=6, seed=0).search()
        coarse = LCPSS(model, num_devices=3, alpha=1.0, num_random_splits=6, seed=0).search()
        mid = LCPSS(model, num_devices=3, alpha=0.75, num_random_splits=6, seed=0).search()
        assert coarse.num_volumes <= mid.num_volumes <= fine.num_volumes

    def test_score_history_non_increasing(self, model):
        result = LCPSS(model, num_devices=3, alpha=0.5, num_random_splits=6, seed=0).search()
        assert all(b <= a + 1e-9 for a, b in zip(result.history, result.history[1:]))

    def test_deterministic_for_fixed_seed(self, model):
        a = LCPSS(model, num_devices=3, alpha=0.75, num_random_splits=6, seed=3).search()
        b = LCPSS(model, num_devices=3, alpha=0.75, num_random_splits=6, seed=3).search()
        assert a.boundaries == b.boundaries

    def test_max_passes_limits_refinement(self, model):
        result = LCPSS(
            model, num_devices=3, alpha=0.0, num_random_splits=4, seed=0, max_passes=1
        ).search()
        assert result.passes == 1

    def test_invalid_alpha(self, model):
        with pytest.raises(ValueError):
            LCPSS(model, num_devices=3, alpha=1.5)

    def test_single_device_partitioning_still_works(self, model):
        result = LCPSS(model, num_devices=1, alpha=0.75, num_random_splits=4, seed=0).search()
        assert result.boundaries[0] == 0

    def test_vgg16_default_alpha_reasonable_volume_count(self):
        """At the paper's alpha=0.75 VGG-16 lands between 3 and 8 volumes."""
        vgg = model_zoo.vgg16()
        result = LCPSS(vgg, num_devices=4, alpha=0.75, num_random_splits=10, seed=0).search()
        assert 3 <= result.num_volumes <= 8


class TestArrayScoringPins:
    """LC-PSS on the array scorer walks the scalar loop's search exactly."""

    @pytest.mark.parametrize("name", ["small_vgg", "tiny_cnn"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.75, 1.0])
    def test_search_matches_scalar_scoring(self, name, alpha, scalar_mean_score):
        model = model_zoo.get(name)
        fast = LCPSS(model, num_devices=3, alpha=alpha, num_random_splits=6, seed=0)
        slow = LCPSS(model, num_devices=3, alpha=alpha, num_random_splits=6, seed=0)
        slow.score = lambda b: scalar_mean_score(slow.cost_model, b, slow.alpha)
        a, b = fast.search(), slow.search()
        assert a.boundaries == b.boundaries
        assert a.score == b.score
        assert a.history == b.history
        assert a.passes == b.passes

    def test_vgg16_benchmark_partition(self, vgg16_model):
        """The partition the end-to-end ``plan`` workload builds on."""
        result = LCPSS(vgg16_model, 16, alpha=0.75, num_random_splits=10, seed=17).search()
        assert result.boundaries == [0, 6, 10, 12, 14, 15, 16, 18]
        assert result.score == 0.4066141105251013
