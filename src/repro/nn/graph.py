"""Sequential CNN model container.

The paper treats CNN models as sequences of convolutional / pooling layers
followed by (optionally) fully-connected layers, and distributes only the
spatial (conv/pool) prefix; the trailing dense layers are computed on the
provider that holds the largest share of the last layer-volume
(Section V-A).  :class:`ModelSpec` captures that structure, validates that
consecutive layer shapes chain correctly, and provides the op/byte accounting
the partitioner's cost model needs.

A *layer-volume* (paper term, equivalent to "fused layers" in DeepThings /
DeeperThings / AOFL) is a contiguous run of spatial layers; it is represented
by :class:`LayerVolume`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.nn.layers import (
    ConvSpec,
    DenseSpec,
    LayerSpec,
    PoolSpec,
    same_padding,
)


@dataclass(frozen=True)
class LayerVolume:
    """A contiguous run of spatial layers ``[start, end)`` of a model.

    Attributes
    ----------
    layers:
        The layer specifications in the volume, in execution order.
    start, end:
        Index range (0-based, half-open) into the owning model's layer list.
    """

    layers: Tuple[LayerSpec, ...]
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a layer-volume must contain at least one layer")
        if self.end - self.start != len(self.layers):
            raise ValueError(
                f"index range [{self.start}, {self.end}) does not match {len(self.layers)} layers"
            )
        for layer in self.layers:
            if not layer.is_spatial:
                raise ValueError(
                    f"layer {layer.name!r} is not spatial; only conv/pool layers can form a layer-volume"
                )

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @property
    def first(self) -> LayerSpec:
        """First layer of the volume."""
        return self.layers[0]

    @property
    def last(self) -> LayerSpec:
        """Last layer of the volume (the one whose output height is split)."""
        return self.layers[-1]

    @property
    def output_height(self) -> int:
        """Height of the volume's final output tensor (``H_l`` in the paper)."""
        return self.last.out_h

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return self.first.input_shape

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        return self.last.output_shape

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations over the volume."""
        return sum(layer.macs for layer in self.layers)

    @property
    def input_bytes(self) -> int:
        """Bytes of the tensor entering the volume."""
        return self.first.input_bytes

    @property
    def output_bytes(self) -> int:
        """Bytes of the tensor leaving the volume."""
        return self.last.output_bytes

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"LayerVolume[{self.start}:{self.end}] "
            f"{self.first.name}..{self.last.name} "
            f"in={self.input_shape} out={self.output_shape} macs={self.macs:,}"
        )


class ModelSpec:
    """An ordered, shape-validated sequence of layer specifications.

    Parameters
    ----------
    name:
        Model name (e.g. ``"vgg16"``).
    layers:
        Layer specifications in execution order.  All spatial layers must
        precede all dense layers (the standard CNN backbone + head shape the
        paper distributes).
    input_shape:
        ``(H, W, C)`` of the model input.  Must equal the first layer's
        declared input shape.
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[LayerSpec],
        input_shape: Tuple[int, int, int],
    ) -> None:
        if not layers:
            raise ValueError("a model must contain at least one layer")
        self.name = name
        self.layers: Tuple[LayerSpec, ...] = tuple(layers)
        self.input_shape = tuple(int(v) for v in input_shape)
        self._validate()

    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        first = self.layers[0]
        if first.input_shape != self.input_shape:
            raise ValueError(
                f"model input shape {self.input_shape} does not match first layer "
                f"{first.name!r} input {first.input_shape}"
            )
        seen_dense = False
        names = set()
        prev = None
        for layer in self.layers:
            if layer.name in names:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            names.add(layer.name)
            if prev is not None:
                if layer.is_spatial:
                    if layer.input_shape != prev.output_shape:
                        raise ValueError(
                            f"layer {layer.name!r} input {layer.input_shape} does not match "
                            f"previous layer {prev.name!r} output {prev.output_shape}"
                        )
                else:
                    expected = prev.out_h * prev.out_w * prev.out_c
                    got = layer.in_h * layer.in_w * layer.in_c
                    if expected != got:
                        raise ValueError(
                            f"dense layer {layer.name!r} expects {got} features but previous "
                            f"layer {prev.name!r} produces {expected}"
                        )
            if not layer.is_spatial:
                seen_dense = True
            elif seen_dense:
                raise ValueError(
                    f"spatial layer {layer.name!r} appears after a dense layer; "
                    "models must be backbone (conv/pool) followed by head (dense)"
                )
            prev = layer

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> LayerSpec:
        return self.layers[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelSpec(name={self.name!r}, layers={len(self.layers)}, "
            f"input={self.input_shape}, macs={self.total_macs:,})"
        )

    # -- structure ------------------------------------------------------ #
    @property
    def spatial_layers(self) -> Tuple[LayerSpec, ...]:
        """The distributable conv/pool prefix."""
        return tuple(l for l in self.layers if l.is_spatial)

    @property
    def head_layers(self) -> Tuple[LayerSpec, ...]:
        """The trailing dense layers (computed on a single provider)."""
        return tuple(l for l in self.layers if not l.is_spatial)

    @property
    def num_spatial_layers(self) -> int:
        return len(self.spatial_layers)

    # -- accounting ------------------------------------------------------ #
    @property
    def total_macs(self) -> int:
        """Total MACs of one full inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def backbone_macs(self) -> int:
        """MACs of the distributable spatial prefix."""
        return sum(layer.macs for layer in self.spatial_layers)

    @property
    def head_macs(self) -> int:
        return sum(layer.macs for layer in self.head_layers)

    @property
    def input_bytes(self) -> int:
        h, w, c = self.input_shape
        from repro.utils.units import FP16_BYTES

        return h * w * c * FP16_BYTES

    @property
    def output_bytes(self) -> int:
        return self.layers[-1].output_bytes

    def layer_output_bytes(self) -> List[int]:
        """Per-layer output activation sizes (bytes) over the spatial prefix."""
        return [layer.output_bytes for layer in self.spatial_layers]

    def layer_macs(self) -> List[int]:
        """Per-layer MAC counts over the spatial prefix."""
        return [layer.macs for layer in self.spatial_layers]

    # -- partitioning ----------------------------------------------------- #
    def volume(self, start: int, end: int) -> LayerVolume:
        """Return the layer-volume spanning spatial layers ``[start, end)``."""
        spatial = self.spatial_layers
        if not (0 <= start < end <= len(spatial)):
            raise ValueError(
                f"invalid volume range [{start}, {end}) for {len(spatial)} spatial layers"
            )
        return LayerVolume(layers=spatial[start:end], start=start, end=end)

    def partition(self, boundaries: Sequence[int]) -> List[LayerVolume]:
        """Cut the spatial prefix into layer-volumes at ``boundaries``.

        ``boundaries`` is the *partition scheme* of the paper expressed as a
        sorted list of boundary indices that must start with 0 and end with
        ``num_spatial_layers``; volume ``i`` spans
        ``[boundaries[i], boundaries[i+1])``.
        """
        bounds = list(boundaries)
        n = self.num_spatial_layers
        if len(bounds) < 2:
            raise ValueError("a partition scheme needs at least two boundaries")
        if bounds[0] != 0 or bounds[-1] != n:
            raise ValueError(
                f"partition boundaries must start at 0 and end at {n}, got {bounds}"
            )
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError(f"partition boundaries must be strictly increasing, got {bounds}")
        return [self.volume(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def single_volume_partition(self) -> List[int]:
        """The trivial partition scheme with one layer-volume (DeepThings style)."""
        return [0, self.num_spatial_layers]

    def layer_by_layer_partition(self) -> List[int]:
        """The finest partition scheme with one layer per volume (CoEdge style)."""
        return list(range(self.num_spatial_layers + 1))


class ModelBuilder:
    """Fluent builder for sequential CNN models.

    Example
    -------
    >>> spec = (ModelBuilder("tiny", input_shape=(32, 32, 3))
    ...         .conv(16, kernel=3, padding="same")
    ...         .pool()
    ...         .conv(32, kernel=3, padding="same")
    ...         .pool()
    ...         .dense(10)
    ...         .build())
    >>> spec.num_spatial_layers
    4
    """

    def __init__(self, name: str, input_shape: Tuple[int, int, int]) -> None:
        self.name = name
        self.input_shape = tuple(int(v) for v in input_shape)
        self._layers: List[LayerSpec] = []
        self._counter = 0

    # ------------------------------------------------------------------ #
    def _current_shape(self) -> Tuple[int, int, int]:
        if not self._layers:
            return self.input_shape
        return self._layers[-1].output_shape

    def _next_name(self, prefix: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        self._counter += 1
        return f"{prefix}{self._counter}"

    @staticmethod
    def _resolve_padding(padding: Union[int, str], kernel: int) -> int:
        if isinstance(padding, str):
            if padding == "same":
                return same_padding(kernel)
            if padding == "valid":
                return 0
            raise ValueError(f"unknown padding mode {padding!r}")
        return int(padding)

    # ------------------------------------------------------------------ #
    def conv(
        self,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        padding: Union[int, str] = "same",
        activation: str = "relu",
        groups: int = 1,
        name: Optional[str] = None,
    ) -> "ModelBuilder":
        """Append a convolution layer."""
        h, w, c = self._current_shape()
        pad = self._resolve_padding(padding, kernel)
        self._layers.append(
            ConvSpec(
                name=self._next_name("conv", name),
                in_h=h,
                in_w=w,
                in_c=c,
                out_channels=out_channels,
                kernel_size=kernel,
                stride_size=stride,
                padding_size=pad,
                activation=activation,
                groups=groups,
            )
        )
        return self

    def pool(
        self,
        kernel: int = 2,
        stride: Optional[int] = None,
        padding: Union[int, str] = 0,
        mode: str = "max",
        name: Optional[str] = None,
    ) -> "ModelBuilder":
        """Append a pooling layer."""
        h, w, c = self._current_shape()
        stride = kernel if stride is None else stride
        pad = self._resolve_padding(padding, kernel)
        self._layers.append(
            PoolSpec(
                name=self._next_name("pool", name),
                in_h=h,
                in_w=w,
                in_c=c,
                kernel_size=kernel,
                stride_size=stride,
                padding_size=pad,
                mode=mode,
            )
        )
        return self

    def dense(
        self,
        out_features: int,
        activation: str = "linear",
        name: Optional[str] = None,
    ) -> "ModelBuilder":
        """Append a fully-connected layer."""
        h, w, c = self._current_shape()
        self._layers.append(
            DenseSpec(
                name=self._next_name("fc", name),
                in_h=h,
                in_w=w,
                in_c=c,
                out_features=out_features,
                activation=activation,
            )
        )
        return self

    def build(self) -> ModelSpec:
        """Finalize and validate the model."""
        return ModelSpec(self.name, self._layers, self.input_shape)


#: (model -> {boundaries tuple -> volumes tuple}) memo behind
#: :func:`cached_partition`.  Keyed weakly so dropping a model drops its
#: cached partitions.
_PARTITION_MEMO: "weakref.WeakKeyDictionary[ModelSpec, Dict[Tuple[int, ...], Tuple[LayerVolume, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_partition(model: ModelSpec, boundaries: Sequence[int]) -> List[LayerVolume]:
    """Memoized :meth:`ModelSpec.partition` keyed on ``(model, boundaries)``.

    Partitioning is pure — the same model and boundaries always produce
    structurally identical (and frozen, hence shareable)
    :class:`LayerVolume` objects — but it is rebuilt for every
    :class:`~repro.runtime.plan.DistributionPlan`, which at 32+ devices is a
    large share of per-episode plan construction in OSDS.  This memo shares the volume
    objects and re-runs validation only on the first sighting of a
    boundaries tuple; the returned list is a fresh copy, so callers may
    mutate the *list* freely.
    """
    per_model = _PARTITION_MEMO.get(model)
    if per_model is None:
        per_model = {}
        _PARTITION_MEMO[model] = per_model
    key = tuple(int(b) for b in boundaries)
    volumes = per_model.get(key)
    if volumes is None:
        volumes = tuple(model.partition(key))
        per_model[key] = volumes
    return list(volumes)


__all__ = ["LayerVolume", "ModelSpec", "ModelBuilder", "cached_partition"]
