"""Vertical-Splitting Law and split-part construction.

Section III-B of the paper defines the *Vertical-Splitting Law* (VSL): for a
split-part of a layer-volume, once the output height of its last sub-layer is
fixed, the required heights of every earlier sub-layer — and in particular
the input height of the first sub-layer — follow from

    h^{i}_out = (h^{i+1}_out - 1) * S_{i+1} + F_{i+1}          (Eq. 1)
    h^{1}_in  = (h^{1}_out  - 1) * S_1     + F_1               (Eq. 2)

Two flavours of this arithmetic live here:

* :func:`vsl_input_height` / :func:`propagate_output_height` implement the
  paper's formulas verbatim (no padding, no clipping).  The cost models and
  the MDP state use these.
* :func:`required_input_rows` / :func:`required_input_rows_chain` compute the
  *exact* half-open row ranges a split-part needs, accounting for padding and
  tensor edges.  The numerical split executor and the transmission-volume
  accounting use these, which is what makes split execution bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.graph import LayerVolume
from repro.nn.layers import LayerSpec
from repro.utils.units import FP16_BYTES


# --------------------------------------------------------------------------- #
# Paper formulas (Eq. 1 / Eq. 2)
# --------------------------------------------------------------------------- #
def vsl_layer_input_height(layer: LayerSpec, h_out: int) -> int:
    """Input height implied by Eq. 1/2 for a single layer (no padding/clipping)."""
    if h_out <= 0:
        return 0
    return (h_out - 1) * layer.stride + layer.kernel


def propagate_output_height(layers: Sequence[LayerSpec], h_out_last: int) -> List[int]:
    """Output heights of every sub-layer given the last sub-layer's output height.

    Returns a list ``[h^1_out, h^2_out, ..., h^n_out]`` where ``h^n_out`` is
    ``h_out_last`` and earlier entries follow Eq. 1 (the output height of
    sub-layer *i* equals the input height of sub-layer *i+1*).
    """
    if not layers:
        raise ValueError("layers must not be empty")
    heights = [0] * len(layers)
    heights[-1] = int(h_out_last)
    for i in range(len(layers) - 2, -1, -1):
        heights[i] = vsl_layer_input_height(layers[i + 1], heights[i + 1])
    return heights


def vsl_input_height(layers: Sequence[LayerSpec], h_out_last: int) -> int:
    """Input height of the first sub-layer per the Vertical-Splitting Law."""
    if h_out_last <= 0:
        return 0
    heights = propagate_output_height(layers, h_out_last)
    return vsl_layer_input_height(layers[0], heights[0])


# --------------------------------------------------------------------------- #
# Exact row-range arithmetic (padding & clipping aware)
# --------------------------------------------------------------------------- #
def required_input_rows(layer: LayerSpec, out_start: int, out_end: int) -> Tuple[int, int]:
    """Exact input row range needed to compute output rows ``[out_start, out_end)``.

    The returned range is clipped to the real tensor extent ``[0, in_h)``;
    rows that fall outside it are provided by zero padding at the true tensor
    edge and therefore never need to be transmitted.
    """
    if out_start < 0 or out_end > layer.out_h or out_start > out_end:
        raise ValueError(
            f"output rows [{out_start}, {out_end}) invalid for layer {layer.name!r} "
            f"with out_h={layer.out_h}"
        )
    if out_start == out_end:
        return (0, 0)
    lo = out_start * layer.stride - layer.padding
    hi = (out_end - 1) * layer.stride - layer.padding + layer.kernel
    return (max(lo, 0), min(hi, layer.in_h))


def required_input_rows_chain(
    layers: Sequence[LayerSpec], out_start: int, out_end: int
) -> Tuple[int, int]:
    """Input row range of the *first* layer needed for output rows of the *last*.

    Composes :func:`required_input_rows` backwards through the chain.
    """
    if not layers:
        raise ValueError("layers must not be empty")
    start, end = out_start, out_end
    for layer in reversed(layers):
        start, end = required_input_rows(layer, start, end)
        if start == end:
            return (0, 0)
    return (start, end)


def per_layer_row_ranges(
    layers: Sequence[LayerSpec], out_start: int, out_end: int
) -> List[Tuple[int, int]]:
    """Output row ranges of every sub-layer needed for the final output rows.

    Entry ``i`` is the half-open range of rows of sub-layer ``i``'s *output*
    that a split-part must compute so that the last sub-layer can produce
    rows ``[out_start, out_end)``.
    """
    if not layers:
        raise ValueError("layers must not be empty")
    ranges: List[Tuple[int, int]] = [(0, 0)] * len(layers)
    ranges[-1] = (out_start, out_end)
    start, end = out_start, out_end
    for i in range(len(layers) - 1, 0, -1):
        start, end = required_input_rows(layers[i], start, end)
        ranges[i - 1] = (start, end)
    return ranges


# --------------------------------------------------------------------------- #
# Split decisions and split parts
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SplitDecision:
    """Cut points on the last layer's output height for one layer-volume.

    ``cuts`` holds the paper's action ``(x_1, ..., x_{|D|-1})``: non-negative,
    non-decreasing integers in ``[0, H_l]``.  Device ``i`` (0-based) is
    assigned output rows ``[x_i, x_{i+1})`` with the convention ``x_0 = 0``
    and ``x_{|D|} = H_l``.
    """

    cuts: Tuple[int, ...]
    output_height: int

    def __post_init__(self) -> None:
        if self.output_height <= 0:
            raise ValueError(f"output_height must be positive, got {self.output_height}")
        prev = 0
        for x in self.cuts:
            if x < 0 or x > self.output_height:
                raise ValueError(
                    f"cut {x} outside [0, {self.output_height}] in {self.cuts}"
                )
            if x < prev:
                raise ValueError(f"cuts must be non-decreasing, got {self.cuts}")
            prev = x

    @property
    def num_devices(self) -> int:
        return len(self.cuts) + 1

    def row_ranges(self) -> List[Tuple[int, int]]:
        """Half-open output row range assigned to each device."""
        edges = [0, *self.cuts, self.output_height]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def rows_per_device(self) -> List[int]:
        """Number of output rows assigned to each device."""
        return [end - start for start, end in self.row_ranges()]

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_fractions(
        cls, fractions: Sequence[float], output_height: int
    ) -> "SplitDecision":
        """Build a decision assigning each device a fraction of the rows.

        Fractions are normalised; rounding keeps the total exactly equal to
        ``output_height`` (largest-remainder assignment so a device with a
        non-zero fraction is never silently starved by rounding).
        """
        frac = np.asarray(fractions, dtype=float)
        if frac.ndim != 1 or frac.size == 0:
            raise ValueError("fractions must be a non-empty 1-D sequence")
        if np.any(frac < 0):
            raise ValueError("fractions must be non-negative")
        total = frac.sum()
        if total <= 0:
            # Degenerate request: give everything to the first device.
            rows = np.zeros(frac.size, dtype=int)
            rows[0] = output_height
        else:
            share = frac / total * output_height
            rows = np.floor(share).astype(int)
            remainder = output_height - int(rows.sum())
            if remainder > 0:
                order = np.argsort(-(share - rows))
                for idx in order[:remainder]:
                    rows[idx] += 1
        cuts = np.cumsum(rows)[:-1]
        return cls(cuts=tuple(int(c) for c in cuts), output_height=int(output_height))

    @classmethod
    def equal(cls, num_devices: int, output_height: int) -> "SplitDecision":
        """Equal split across ``num_devices`` (DeepThings / DeeperThings)."""
        return cls.from_fractions([1.0] * num_devices, output_height)

    @classmethod
    def single_device(
        cls, device_index: int, num_devices: int, output_height: int
    ) -> "SplitDecision":
        """Assign all rows to one device (Offload baseline)."""
        fractions = [0.0] * num_devices
        fractions[device_index] = 1.0
        return cls.from_fractions(fractions, output_height)


@dataclass(frozen=True)
class SplitPart:
    """One device's share of a layer-volume.

    Attributes
    ----------
    device_index:
        Position of the assigned service provider in the provider list.
    out_rows:
        Half-open row range of the volume's final output this part produces.
    in_rows:
        Exact half-open row range of the volume's *input* tensor this part
        needs (clipped to the tensor extent; padding rows excluded).
    layer_out_rows:
        Per-sub-layer output row ranges (exact arithmetic).
    macs:
        Multiply-accumulates this part performs, including the recomputation
        overlap inherent to fused vertical splitting.
    """

    device_index: int
    volume_start: int
    volume_end: int
    out_rows: Tuple[int, int]
    in_rows: Tuple[int, int]
    layer_out_rows: Tuple[Tuple[int, int], ...]
    macs: int
    input_bytes: int
    output_bytes: int

    @property
    def is_empty(self) -> bool:
        """True when the device was assigned no rows of this volume."""
        return self.out_rows[0] >= self.out_rows[1]

    @property
    def num_input_rows(self) -> int:
        return max(0, self.in_rows[1] - self.in_rows[0])


def split_volume(volume: LayerVolume, decision: SplitDecision) -> List[SplitPart]:
    """Split a layer-volume into per-device :class:`SplitPart` objects.

    The decision's ``output_height`` must match the volume's output height.
    Devices assigned zero rows receive an empty part (``is_empty`` True),
    which the runtime interprets as "this provider does not participate in
    this volume" — the paper notes this can legitimately happen (e.g. the
    Raspberry Pi 3 in Group-DC receives no work).
    """
    if decision.output_height != volume.output_height:
        raise ValueError(
            f"decision output height {decision.output_height} does not match volume "
            f"output height {volume.output_height}"
        )
    layers = list(volume.layers)
    in_w = volume.first.in_w
    in_c = volume.first.in_c
    out_w = volume.last.out_w
    out_c = volume.last.out_c

    parts: List[SplitPart] = []
    for device_index, (start, end) in enumerate(decision.row_ranges()):
        if start >= end:
            parts.append(
                SplitPart(
                    device_index=device_index,
                    volume_start=volume.start,
                    volume_end=volume.end,
                    out_rows=(start, start),
                    in_rows=(0, 0),
                    layer_out_rows=tuple((0, 0) for _ in layers),
                    macs=0,
                    input_bytes=0,
                    output_bytes=0,
                )
            )
            continue
        ranges = per_layer_row_ranges(layers, start, end)
        in_start, in_end = required_input_rows(layers[0], *ranges[0])
        macs = 0
        for layer, (r0, r1) in zip(layers, ranges):
            macs += layer.macs_for_rows(r1 - r0)
        input_bytes = (in_end - in_start) * in_w * in_c * FP16_BYTES
        output_bytes = (end - start) * out_w * out_c * FP16_BYTES
        parts.append(
            SplitPart(
                device_index=device_index,
                volume_start=volume.start,
                volume_end=volume.end,
                out_rows=(start, end),
                in_rows=(in_start, in_end),
                layer_out_rows=tuple(ranges),
                macs=int(macs),
                input_bytes=int(input_bytes),
                output_bytes=int(output_bytes),
            )
        )
    return parts


def total_overlap_rows(parts: Sequence[SplitPart]) -> int:
    """Total number of duplicated input rows across parts (recomputation halo).

    Useful for analysing the recomputation overhead that deeper layer-volumes
    incur — the trade-off LC-PSS's ``alpha`` controls.
    """
    total = sum(p.num_input_rows for p in parts if not p.is_empty)
    if not parts:
        return 0
    covered_lo = min((p.in_rows[0] for p in parts if not p.is_empty), default=0)
    covered_hi = max((p.in_rows[1] for p in parts if not p.is_empty), default=0)
    return max(0, total - (covered_hi - covered_lo))


__all__ = [
    "vsl_layer_input_height",
    "propagate_output_height",
    "vsl_input_height",
    "required_input_rows",
    "required_input_rows_chain",
    "per_layer_row_ranges",
    "SplitDecision",
    "SplitPart",
    "split_volume",
    "total_overlap_rows",
]
