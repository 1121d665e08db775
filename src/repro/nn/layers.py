"""Layer configuration dataclasses.

The distribution algorithms in the paper never look at weights; they operate
purely on *layer configurations*: input height/width/depth, output depth,
filter size, stride, padding (Section III-B of the paper).  These dataclasses
capture exactly that information and derive the quantities the algorithms
need — output shape, multiply-accumulate count, activation/weight sizes.

All tensor shapes follow the ``(H, W, C)`` channel-last convention and all
sizes are reported for FP16 activations (the paper runs TensorRT FP16 with
batch size 1).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

from repro.utils.units import FP16_BYTES
from repro.utils.validation import check_non_negative, check_positive

#: Activation functions understood by the executor.
ACTIVATIONS = ("linear", "relu", "leaky_relu", "sigmoid")


def conv_output_size(size_in: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    if size_in + 2 * padding < kernel:
        raise ValueError(
            f"input size {size_in} with padding {padding} is smaller than kernel {kernel}"
        )
    return (size_in + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class LayerSpec:
    """Base class for all layer configurations.

    Attributes
    ----------
    name:
        Human-readable unique layer name (e.g. ``"conv1_1"``).
    in_h, in_w, in_c:
        Input tensor height, width and channel count.
    """

    name: str
    in_h: int
    in_w: int
    in_c: int

    def __post_init__(self) -> None:
        check_positive(self.in_h, "in_h")
        check_positive(self.in_w, "in_w")
        check_positive(self.in_c, "in_c")

    # -- shape ------------------------------------------------------------
    @property
    def out_h(self) -> int:
        raise NotImplementedError

    @property
    def out_w(self) -> int:
        raise NotImplementedError

    @property
    def out_c(self) -> int:
        raise NotImplementedError

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """``(H, W, C)`` of the input tensor."""
        return (self.in_h, self.in_w, self.in_c)

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """``(H, W, C)`` of the output tensor."""
        return (self.out_h, self.out_w, self.out_c)

    # -- spatial arithmetic -------------------------------------------------
    @property
    def kernel(self) -> int:
        """Filter size ``F`` along the height dimension (1 for dense layers)."""
        return 1

    @property
    def stride(self) -> int:
        """Stride ``S`` along the height dimension (1 for dense layers)."""
        return 1

    @property
    def padding(self) -> int:
        """Zero padding ``P`` along the height dimension."""
        return 0

    # -- accounting ---------------------------------------------------------
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations needed for one inference."""
        raise NotImplementedError

    @property
    def weight_count(self) -> int:
        """Number of learned parameters."""
        return 0

    @property
    def input_bytes(self) -> int:
        """Size of the input activation tensor in bytes (FP16)."""
        return self.in_h * self.in_w * self.in_c * FP16_BYTES

    @property
    def output_bytes(self) -> int:
        """Size of the output activation tensor in bytes (FP16)."""
        return self.out_h * self.out_w * self.out_c * FP16_BYTES

    @property
    def weight_bytes(self) -> int:
        """Size of the parameters in bytes (FP16)."""
        return self.weight_count * FP16_BYTES

    @property
    def is_spatial(self) -> bool:
        """True for layers that keep a spatial (H, W) structure and can be
        split along the height dimension (conv/pool), False otherwise."""
        return False

    def macs_for_rows(self, out_rows: int) -> int:
        """MACs needed to produce ``out_rows`` rows of the output tensor.

        Spatial layers scale linearly in the number of produced output rows;
        non-spatial layers are all-or-nothing.
        """
        check_non_negative(out_rows, "out_rows")
        if out_rows == 0:
            return 0
        if not self.is_spatial:
            return self.macs
        out_rows = min(out_rows, self.out_h)
        return int(round(self.macs * out_rows / self.out_h))

    def with_input(self, in_h: int, in_w: int, in_c: int) -> "LayerSpec":
        """Return a copy of this spec with a different input shape."""
        return dataclasses.replace(self, in_h=in_h, in_w=in_w, in_c=in_c)


@dataclass(frozen=True)
class ConvSpec(LayerSpec):
    """2-D convolution layer configuration.

    Parameters follow the paper's Section III-B: output depth ``out_c``,
    filter size ``kernel_size`` (square filters), stride, symmetric zero
    padding, and an activation fused into the layer.
    """

    out_channels: int = 1
    kernel_size: int = 3
    stride_size: int = 1
    padding_size: int = 0
    activation: str = "relu"
    has_bias: bool = True
    #: Optional grouping factor (1 = dense convolution). Depthwise separable
    #: approximations in the model zoo use ``groups == in_c``.
    groups: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.out_channels, "out_channels")
        check_positive(self.kernel_size, "kernel_size")
        check_positive(self.stride_size, "stride_size")
        check_non_negative(self.padding_size, "padding_size")
        check_positive(self.groups, "groups")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )
        if self.in_c % self.groups != 0 or self.out_channels % self.groups != 0:
            raise ValueError(
                f"groups={self.groups} must divide in_c={self.in_c} and out_channels={self.out_channels}"
            )
        # Trigger shape validation early so invalid configurations fail at
        # construction rather than deep inside a planner.
        _ = self.out_h
        _ = self.out_w

    @property
    def out_h(self) -> int:
        return conv_output_size(self.in_h, self.kernel_size, self.stride_size, self.padding_size)

    @property
    def out_w(self) -> int:
        return conv_output_size(self.in_w, self.kernel_size, self.stride_size, self.padding_size)

    @property
    def out_c(self) -> int:
        return self.out_channels

    @property
    def kernel(self) -> int:
        return self.kernel_size

    @property
    def stride(self) -> int:
        return self.stride_size

    @property
    def padding(self) -> int:
        return self.padding_size

    @property
    def is_spatial(self) -> bool:
        return True

    @property
    def macs(self) -> int:
        per_output = self.kernel_size * self.kernel_size * (self.in_c // self.groups)
        return self.out_h * self.out_w * self.out_c * per_output

    @property
    def weight_count(self) -> int:
        w = self.kernel_size * self.kernel_size * (self.in_c // self.groups) * self.out_c
        if self.has_bias:
            w += self.out_c
        return w


@dataclass(frozen=True)
class PoolSpec(LayerSpec):
    """Max-pooling (or average-pooling) layer configuration."""

    kernel_size: int = 2
    stride_size: int = 2
    padding_size: int = 0
    mode: str = "max"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.kernel_size, "kernel_size")
        check_positive(self.stride_size, "stride_size")
        check_non_negative(self.padding_size, "padding_size")
        if self.mode not in ("max", "avg"):
            raise ValueError(f"mode must be 'max' or 'avg', got {self.mode!r}")
        _ = self.out_h
        _ = self.out_w

    @property
    def out_h(self) -> int:
        return conv_output_size(self.in_h, self.kernel_size, self.stride_size, self.padding_size)

    @property
    def out_w(self) -> int:
        return conv_output_size(self.in_w, self.kernel_size, self.stride_size, self.padding_size)

    @property
    def out_c(self) -> int:
        return self.in_c

    @property
    def kernel(self) -> int:
        return self.kernel_size

    @property
    def stride(self) -> int:
        return self.stride_size

    @property
    def padding(self) -> int:
        return self.padding_size

    @property
    def is_spatial(self) -> bool:
        return True

    @property
    def macs(self) -> int:
        # Comparisons/additions are counted as one operation per window element.
        return self.out_h * self.out_w * self.out_c * self.kernel_size * self.kernel_size

    @property
    def weight_count(self) -> int:
        return 0


@dataclass(frozen=True)
class DenseSpec(LayerSpec):
    """Fully-connected layer configuration.

    The paper computes the trailing fully-connected layer(s) on the provider
    holding the largest share of the last layer-volume, so dense layers are
    never split; they are tracked for op/byte accounting and numerical
    verification only.
    """

    out_features: int = 1000
    activation: str = "linear"
    has_bias: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.out_features, "out_features")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )

    @property
    def in_features(self) -> int:
        """Flattened input feature count."""
        return self.in_h * self.in_w * self.in_c

    @property
    def out_h(self) -> int:
        return 1

    @property
    def out_w(self) -> int:
        return 1

    @property
    def out_c(self) -> int:
        return self.out_features

    @property
    def is_spatial(self) -> bool:
        return False

    @property
    def macs(self) -> int:
        return self.in_features * self.out_features

    @property
    def weight_count(self) -> int:
        w = self.in_features * self.out_features
        if self.has_bias:
            w += self.out_features
        return w


def same_padding(kernel_size: int) -> int:
    """Zero padding that keeps the spatial size unchanged at stride 1."""
    if kernel_size % 2 == 0:
        raise ValueError(f"'same' padding requires an odd kernel, got {kernel_size}")
    return (kernel_size - 1) // 2


__all__ = [
    "ACTIVATIONS",
    "LayerSpec",
    "ConvSpec",
    "PoolSpec",
    "DenseSpec",
    "conv_output_size",
    "same_padding",
]
