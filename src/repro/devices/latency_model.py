"""Nonlinear compute-latency model for edge devices.

The paper's core argument against linear-ratio baselines (CoEdge, MoDNN,
MeDNN, AOFL) is that the relationship between computing latency and layer
configuration on real edge accelerators is *nonlinear* (Fig. 14, citing
FastDeepIoT).  This module provides the ground-truth latency model used by
the simulator, with three nonlinear ingredients:

1. **Tile quantisation (staircase).**  GPUs schedule output rows in tiles of
   ``tile_rows``; a split-part with 17 output rows on a 16-row-tile device
   costs as much as one with 32.  This produces the step pattern of Fig. 14.
2. **Per-layer launch overhead.**  Every (sub-)layer pays a fixed kernel
   launch/scheduling cost, so many tiny split-parts are disproportionately
   expensive — the reason pure layer-by-layer distribution underperforms.
3. **Roofline memory term.**  Layers with little arithmetic per byte (1x1
   convolutions, pooling) are bound by memory bandwidth rather than compute.

The model is intentionally simple and fully documented so calibration is
transparent; all the distribution algorithms see it only through profiles
(:mod:`repro.devices.profiler`), exactly as the real controller only sees
TensorRT profiling results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.devices.specs import DeviceType
from repro.nn.graph import LayerVolume
from repro.nn.layers import LayerSpec
from repro.nn.splitting import SplitPart, per_layer_row_ranges
from repro.utils.fold import fold_sum
from repro.utils.units import FP16_BYTES
from repro.utils.validation import check_non_negative


def _quantized_rows(out_rows: int, tile_rows: int) -> int:
    """Round the number of output rows up to the device's tile granularity."""
    if out_rows <= 0:
        return 0
    if tile_rows <= 1:
        return out_rows
    return int(math.ceil(out_rows / tile_rows) * tile_rows)


def layer_compute_latency_ms(
    dtype: DeviceType,
    layer: LayerSpec,
    out_rows: Optional[int] = None,
) -> float:
    """Latency (ms) of computing ``out_rows`` output rows of ``layer``.

    ``out_rows=None`` means the full layer.  Zero rows cost zero (the device
    does not participate and launches nothing).
    """
    if out_rows is None:
        out_rows = layer.out_h if layer.is_spatial else 1
    check_non_negative(out_rows, "out_rows")
    if out_rows == 0:
        return 0.0

    if layer.is_spatial:
        rows = min(out_rows, layer.out_h)
        q_rows = min(_quantized_rows(rows, dtype.tile_rows), max(layer.out_h, rows))
        macs_per_row = layer.macs / layer.out_h
        effective_macs = macs_per_row * q_rows
        # Bytes touched: the input rows needed for these output rows, the
        # produced output rows, and the (resident) weights streamed once.
        in_lo, in_hi = _input_rows_for(layer, rows)
        input_bytes = (in_hi - in_lo) * layer.in_w * layer.in_c * FP16_BYTES
        output_bytes = rows * layer.out_w * layer.out_c * FP16_BYTES
        touched_bytes = input_bytes + output_bytes + layer.weight_bytes
    else:
        effective_macs = layer.macs
        touched_bytes = layer.input_bytes + layer.output_bytes + layer.weight_bytes

    compute_ms = effective_macs / dtype.peak_macs_per_s * 1000.0
    memory_ms = touched_bytes / dtype.mem_bandwidth_bytes_per_s * 1000.0
    return dtype.launch_overhead_ms + max(compute_ms, memory_ms)


def _input_rows_for(layer: LayerSpec, out_rows: int) -> tuple[int, int]:
    """Input row extent needed for the first ``out_rows`` output rows."""
    lo = 0 * layer.stride - layer.padding
    hi = (out_rows - 1) * layer.stride - layer.padding + layer.kernel
    return max(lo, 0), min(hi, layer.in_h)


def volume_compute_latency_ms(
    dtype: DeviceType,
    layers: Sequence[LayerSpec],
    out_rows_last: int,
) -> float:
    """Latency (ms) of computing a split-part of a layer-volume.

    The part is defined by the number of output rows of the *last* sub-layer;
    the rows every earlier sub-layer must produce follow from the exact
    row-range arithmetic (including the recomputation halo).
    """
    check_non_negative(out_rows_last, "out_rows_last")
    if out_rows_last == 0 or not layers:
        return 0.0
    last = layers[-1]
    rows = min(out_rows_last, last.out_h)
    ranges = per_layer_row_ranges(list(layers), 0, rows)
    total = 0.0
    for layer, (a, b) in zip(layers, ranges):
        total += layer_compute_latency_ms(dtype, layer, b - a)
    return total


def part_compute_latency_ms(dtype: DeviceType, part: SplitPart, volume: LayerVolume) -> float:
    """Latency (ms) of a concrete :class:`~repro.nn.splitting.SplitPart`."""
    if part.is_empty:
        return 0.0
    total = 0.0
    for layer, (a, b) in zip(volume.layers, part.layer_out_rows):
        total += layer_compute_latency_ms(dtype, layer, b - a)
    return total


@dataclass(frozen=True)
class ComputeLatencyModel:
    """Callable wrapper binding a device type to the latency functions.

    Provides the ground-truth oracle used by the runtime simulator and by
    the profiler (optionally with measurement noise added on top).
    """

    dtype: DeviceType

    def layer(self, layer: LayerSpec, out_rows: Optional[int] = None) -> float:
        """Latency of ``out_rows`` rows of a single layer (ms)."""
        return layer_compute_latency_ms(self.dtype, layer, out_rows)

    def volume(self, layers: Sequence[LayerSpec], out_rows_last: int) -> float:
        """Latency of a split-part defined by last-layer output rows (ms)."""
        return volume_compute_latency_ms(self.dtype, layers, out_rows_last)

    def part(self, part: SplitPart, volume: LayerVolume) -> float:
        """Latency of a concrete split-part (ms)."""
        return part_compute_latency_ms(self.dtype, part, volume)

    def full_model(self, layers: Sequence[LayerSpec]) -> float:
        """Latency of executing every layer in full on this device (ms)."""
        return fold_sum(layer_compute_latency_ms(self.dtype, layer, None) for layer in layers)


__all__ = [
    "ComputeLatencyModel",
    "layer_compute_latency_ms",
    "volume_compute_latency_ms",
    "part_compute_latency_ms",
]
