"""Partition cost model: the ``Cp`` score of Eq. 3, scored as one array program.

LC-PSS scores a candidate partition scheme ``Rp`` by

    Cp = alpha * T + (1 - alpha) * O                                 (Eq. 3)

averaged over a set of *random split decisions* ``Rr_s`` (Eq. 4), where

* ``O`` is the total number of operations performed by all split-parts —
  including the recomputation caused by the halo overlap of fused
  layer-volumes (this is what penalises overly coarse partitions), and
* ``T`` is the total amount of data transmitted between endpoints for one
  inference — the requester's scatter, every volume-boundary redistribution
  and the final gather (this is what penalises overly fine partitions).

Both terms are normalised before mixing (operations by the single-device
backbone MAC count, transmission by the total activation footprint of the
model) so that ``alpha`` is a dimensionless trade-off knob, as in the paper
where ``alpha`` ranges over [0, 1] and 0.75 works best.

Array layout
------------
:meth:`PartitionCostModel.mean_score` scores all ``S = |Rr_s|`` samples of
a candidate at once, on int64 ``(S, D)`` grids of samples by devices:

* **Draws.**  The RNG stream of ``Rr_s`` does not depend on volume heights,
  so the fractions are drawn once per volume count ``V`` as an
  ``(S, V, D)`` array.  They become cut edges ``[0, *cuts, H]`` of shape
  ``(S, D + 1)`` once per (volume count, volume index, output height),
  through the scalar :meth:`SplitDecision.from_fractions`.
* **Row ranges.**  A volume's output rows are the edges' ``(S, D)`` lows
  and highs, propagated backwards through its layers with
  :func:`~repro.nn.splitting.required_input_rows`'s formula.  Empty parts
  are pinned to ``(0, 0)`` at every layer, because the formula would grow
  an empty range again.
* **MACs.**  Per-layer tables hold ``macs_for_rows(r)`` for
  ``r = 0..out_h``; a layer's MACs are a gather by row count.
* **Redistribution.**  A boundary moves the ``(S, src, dst)`` overlaps of
  the previous volume's output rows with this volume's input rows, off the
  diagonal.  An empty part has a zero-length interval on either side, so
  clipping the overlaps at zero masks it.
* **Float order.**  Transmission (scatter, each boundary, then the gather),
  the score and the sequential mean accumulate in :meth:`sample_cost`'s
  order, so each mean ``Cp`` is the identical float the per-sample loop
  gives.

:meth:`PartitionCostModel.sample_cost` — :func:`split_volume` and
:func:`redistribution_bytes` on one concrete decision per volume — is the
scalar reference that parity tests hold the array program to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.graph import LayerVolume, ModelSpec, cached_partition
from repro.nn.layers import LayerSpec
from repro.nn.splitting import SplitDecision, split_volume
from repro.runtime.plan import redistribution_bytes
from repro.utils.cache import LRUCache
from repro.utils.rng import SeedLike, as_rng
from repro.utils.units import FP16_BYTES
from repro.utils.validation import check_fraction


def _draw_fractions(num_devices: int, rng: np.random.Generator) -> np.ndarray:
    """Device fractions of one random split decision.

    Uniform fractions with each device dropped (zeroed) with probability
    0.2; if every device is dropped, one drawn uniformly gets everything.
    This is the single definition of the ``Rr_s`` stream order: the scalar
    :func:`random_split_decisions` and the array path both draw through it.
    """
    fractions = rng.random(num_devices)
    drop = rng.random(num_devices) < 0.2
    fractions = np.where(drop, 0.0, fractions)
    if fractions.sum() <= 0:
        fractions[int(rng.integers(num_devices))] = 1.0
    return fractions


def random_split_decisions(
    num_devices: int,
    output_height: int,
    count: int,
    rng: np.random.Generator,
) -> List[SplitDecision]:
    """Draw ``count`` random split decisions for one layer-volume.

    Decisions are uniform random fractions over the devices, occasionally
    zeroing a device, mimicking the diversity of splits OSDS may later
    choose.  The same random fractions are reused across candidate partitions
    by seeding the generator once per LC-PSS run.
    """
    return [
        SplitDecision.from_fractions(_draw_fractions(num_devices, rng), output_height)
        for _ in range(count)
    ]


def _input_rows(
    layer: LayerSpec, start: np.ndarray, end: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.nn.splitting.required_input_rows` over int64 arrays.

    Empty ranges map to ``(0, 0)``; unmasked, the formula would give an
    empty output range a non-empty input range.
    """
    empty = start >= end
    lo = np.maximum(start * layer.stride - layer.padding, 0)
    hi = np.minimum((end - 1) * layer.stride - layer.padding + layer.kernel, layer.in_h)
    lo[empty] = 0
    hi[empty] = 0
    return lo, hi


@dataclass
class PartitionCost:
    """Breakdown of the cost of one (partition, split-decision) sample."""

    operations: float
    transmission_bytes: float
    normalized_operations: float
    normalized_transmission: float

    def score(self, alpha: float) -> float:
        """``Cp`` for a given alpha (Eq. 3, on the normalised terms)."""
        check_fraction(alpha, "alpha")
        return alpha * self.normalized_transmission + (1.0 - alpha) * self.normalized_operations


class PartitionCostModel:
    """Computes ``Cp`` for candidate partition schemes of one model.

    Parameters
    ----------
    model:
        The CNN model being partitioned.
    num_devices:
        Number of service providers (determines the split-decision arity).
    num_random_splits:
        ``|Rr_s|`` in the paper — how many random split decisions are
        averaged per candidate partition (paper default: 100).
    input_bytes_per_element:
        Encoding of the requester's input scatter (matches the evaluator's
        notion; see :class:`repro.runtime.evaluator.PlanEvaluator`).
    seed:
        Seed for the random split decisions.
    cache_size:
        Capacity of the mean-score LRU cache.  The random split set ``Rr_s``
        is a pure function of ``seed``, so the mean ``Cp`` of a partition
        scheme is deterministic per (boundaries, alpha) — LC-PSS re-scores
        the incumbent partition inside every refinement pass, and without
        the cache each of those re-scores re-votes all ``|Rr_s|`` samples
        from scratch.  Cached values are the identical floats a recompute
        would produce.
    """

    def __init__(
        self,
        model: ModelSpec,
        num_devices: int,
        num_random_splits: int = 100,
        input_bytes_per_element: float = 0.4,
        seed: SeedLike = 0,
        cache_size: int = 4096,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        if num_random_splits < 1:
            raise ValueError(f"num_random_splits must be >= 1, got {num_random_splits}")
        self.model = model
        self.num_devices = int(num_devices)
        self.num_random_splits = int(num_random_splits)
        self.input_bytes_per_element = float(input_bytes_per_element)
        self.seed = seed
        # Normalisation constants: single-device operation count and the
        # total activation footprint over the spatial prefix.
        self._ops_norm = float(max(model.backbone_macs, 1))
        activation_bytes = model.input_bytes + sum(l.output_bytes for l in model.spatial_layers)
        self._bytes_norm = float(max(activation_bytes, 1))
        self._score_cache = LRUCache(cache_size)
        # Array-path memos, all pure functions of their keys: (S, V, D)
        # fractions per volume count, (S, D + 1) cut edges per (volume
        # count, volume index, output height), MAC tables per layer index.
        self._fractions: Dict[int, np.ndarray] = {}
        self._edges: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._mac_tables: Dict[int, np.ndarray] = {}
        self._off_diagonal = ~np.eye(self.num_devices, dtype=bool)

    # ------------------------------------------------------------------ #
    def _fresh_rng(self) -> np.random.Generator:
        # A fresh generator per scoring pass keeps the random split set
        # identical across candidate partitions within one LC-PSS run,
        # matching the paper where Rr_s is drawn once.
        return as_rng(self.seed)

    def _cut_edges(self, num_volumes: int, index: int, output_height: int) -> np.ndarray:
        """``[0, *cuts, H]`` of every sample's decision for one volume, ``(S, D + 1)``.

        Sample ``s`` draws one decision per volume in volume order, so the
        fractions depend on the volume count but never on the heights.
        """
        key = (num_volumes, index, output_height)
        edges = self._edges.get(key)
        if edges is None:
            fractions = self._fractions.get(num_volumes)
            if fractions is None:
                rng = self._fresh_rng()
                fractions = np.array([
                    [_draw_fractions(self.num_devices, rng) for _ in range(num_volumes)]
                    for _ in range(self.num_random_splits)
                ])
                self._fractions[num_volumes] = fractions
            edges = np.array(
                [
                    [0, *SplitDecision.from_fractions(f, output_height).cuts, output_height]
                    for f in fractions[:, index]
                ],
                dtype=np.int64,
            )
            self._edges[key] = edges
        return edges

    def _mac_table(self, layer_index: int, layer: LayerSpec) -> np.ndarray:
        """``layer.macs_for_rows(r)`` for ``r = 0..out_h``."""
        table = self._mac_tables.get(layer_index)
        if table is None:
            table = np.array(
                [layer.macs_for_rows(r) for r in range(layer.out_h + 1)], dtype=np.int64
            )
            self._mac_tables[layer_index] = table
        return table

    def _volume_parts(
        self, volume: LayerVolume, out_lo: np.ndarray, out_hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-part MACs and input rows of one volume, each ``(S, D)``.

        Walks the layers backwards like
        :func:`~repro.nn.splitting.per_layer_row_ranges`: each layer's
        output range yields its MACs, then its input range feeds the layer
        before.
        """
        lo, hi = out_lo, out_hi
        macs = np.zeros_like(lo)
        for offset in range(len(volume.layers) - 1, -1, -1):
            layer = volume.layers[offset]
            macs += self._mac_table(volume.start + offset, layer)[hi - lo]
            lo, hi = _input_rows(layer, lo, hi)
        return macs, lo, hi

    def _redistributed_rows(
        self,
        have_lo: np.ndarray,
        have_hi: np.ndarray,
        need_lo: np.ndarray,
        need_hi: np.ndarray,
    ) -> np.ndarray:
        """Rows moved across one volume boundary, per sample ``(S,)``.

        Overlaps are ``(S, src, dst)``: the rows ``src`` produced that
        ``dst`` needs.  Rows a device already holds (the diagonal) stay put.
        """
        overlap = np.minimum(have_hi[:, :, None], need_hi[:, None, :]) - np.maximum(
            have_lo[:, :, None], need_lo[:, None, :]
        )
        np.maximum(overlap, 0, out=overlap)
        return overlap.sum(axis=(1, 2), where=self._off_diagonal)

    def _sample_terms(self, volumes: Sequence[LayerVolume]) -> Tuple[np.ndarray, np.ndarray]:
        """Operations (int64) and transmission bytes (float64) of every sample."""
        num_volumes = len(volumes)
        operations = np.zeros(self.num_random_splits, dtype=np.int64)
        for index, volume in enumerate(volumes):
            edges = self._cut_edges(num_volumes, index, volume.output_height)
            out_lo, out_hi = edges[:, :-1], edges[:, 1:]
            macs, in_lo, in_hi = self._volume_parts(volume, out_lo, out_hi)
            operations += macs.sum(axis=1)
            row_elements = volume.first.in_w * volume.first.in_c
            if index == 0:
                # Transmission: requester scatter (encoded image) ...
                scatter_elements = (in_hi - in_lo).sum(axis=1) * row_elements
                transmission = scatter_elements * self.input_bytes_per_element
            else:
                # ... plus every volume-boundary redistribution (FP16) ...
                moved = self._redistributed_rows(prev_lo, prev_hi, in_lo, in_hi)
                transmission += moved * (row_elements * FP16_BYTES)
            prev_lo, prev_hi = out_lo, out_hi
        # ... plus the final gather, which is the whole last output whatever
        # the split.
        last = volumes[-1].last
        transmission += last.out_h * last.out_w * last.out_c * FP16_BYTES
        return operations, transmission

    def cache_info(self) -> dict:
        """Hit/miss counters of the mean-score cache."""
        return self._score_cache.info()

    def sample_cost(
        self,
        boundaries: Sequence[int],
        decisions_per_volume: Sequence[SplitDecision],
    ) -> PartitionCost:
        """Cost of one concrete (partition, split decisions) combination."""
        volumes = cached_partition(self.model, boundaries)
        if len(volumes) != len(decisions_per_volume):
            raise ValueError(
                f"{len(volumes)} volumes but {len(decisions_per_volume)} split decisions"
            )
        parts_per_volume = [
            split_volume(v, d) for v, d in zip(volumes, decisions_per_volume)
        ]
        operations = float(
            sum(p.macs for parts in parts_per_volume for p in parts)
        )
        # Transmission: requester scatter (encoded image) ...
        first_volume = volumes[0]
        scatter_elements = sum(
            p.num_input_rows * first_volume.first.in_w * first_volume.first.in_c
            for p in parts_per_volume[0]
            if not p.is_empty
        )
        transmission = scatter_elements * self.input_bytes_per_element
        # ... plus every volume-boundary redistribution (FP16 activations) ...
        for prev_parts, cur_volume, cur_parts in zip(
            parts_per_volume, volumes[1:], parts_per_volume[1:]
        ):
            row_bytes = cur_volume.first.in_w * cur_volume.first.in_c * FP16_BYTES
            transfers = redistribution_bytes(prev_parts, cur_parts, row_bytes)
            transmission += float(sum(transfers.values()))
        # ... plus the final gather of the last volume's output.
        transmission += float(
            sum(p.output_bytes for p in parts_per_volume[-1] if not p.is_empty)
        )
        return PartitionCost(
            operations=operations,
            transmission_bytes=transmission,
            normalized_operations=operations / self._ops_norm,
            normalized_transmission=transmission / self._bytes_norm,
        )

    def mean_score(self, boundaries: Sequence[int], alpha: float) -> float:
        """Average ``Cp`` over ``|Rr_s|`` random split decisions (Eq. 4).

        All samples are scored as one array program (see the module
        docstring).  Results are memoized per (boundaries, alpha): the random
        split set is a pure function of the seed, so a recompute could only
        ever return the identical value.
        """
        check_fraction(alpha, "alpha")
        key = (tuple(int(b) for b in boundaries), float(alpha))
        cached = self._score_cache.get(key)
        if cached is not None:
            return cached
        operations, transmission = self._sample_terms(cached_partition(self.model, key[0]))
        scores = alpha * (transmission / self._bytes_norm) + (1.0 - alpha) * (
            operations / self._ops_norm
        )
        # Sum in sample order, as the per-sample loop does; np.sum's
        # pairwise order would move the last bits.
        total = 0.0
        for value in scores.tolist():
            total += value
        score = total / self.num_random_splits
        self._score_cache.put(key, score)
        return score


def partition_score(
    model: ModelSpec,
    boundaries: Sequence[int],
    num_devices: int,
    alpha: float = 0.75,
    num_random_splits: int = 100,
    seed: SeedLike = 0,
) -> float:
    """Convenience wrapper: mean ``Cp`` of a partition scheme."""
    cost_model = PartitionCostModel(
        model, num_devices, num_random_splits=num_random_splits, seed=seed
    )
    return cost_model.mean_score(boundaries, alpha)


__all__ = [
    "PartitionCost",
    "PartitionCostModel",
    "partition_score",
    "random_split_decisions",
]
