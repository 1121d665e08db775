"""Profile representations consumed by the planners.

The paper (Section IV): *"DistrEdge allows various forms to express the
profiling results of a device.  It can be regression models (e.g., linear
regression, piece-wise linear regression, k-nearest-neighbor) or a measured
data table of computing latencies with different layer configurations."*

Four interchangeable representations are provided, all exposing
``latency_ms(layer_name, out_rows)``:

* :class:`TabularProfile` — the measured table, with linear interpolation
  between measured heights (exact when the profile has granularity 1).
* :class:`LinearProfile` — per-layer least-squares linear fit; this is the
  information the linear-model baselines effectively assume.
* :class:`PiecewiseLinearProfile` — segments between knot points.
* :class:`KNNProfile` — k-nearest-neighbour average over measured heights.

:func:`estimate_capability` reduces a profile to a single "computing
capability" scalar (MACs per second), which is all that MoDNN / MeDNN /
CoEdge / AOFL use when computing their split ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.devices.profiler import ProfiledLatency
from repro.nn.graph import ModelSpec
from repro.utils.fold import fold_sum


class LatencyProfile:
    """Interface: latency lookup for (layer, output rows) on one device."""

    def latency_ms(self, layer_name: str, out_rows: int) -> float:
        raise NotImplementedError

    def layers(self) -> List[str]:
        """Names of layers covered by this profile."""
        raise NotImplementedError

    def volume_latency_ms(self, layer_rows: Sequence[Tuple[str, int]]) -> float:
        """Sum of per-layer latencies for a split-part spanning several layers."""
        return fold_sum(self.latency_ms(name, rows) for name, rows in layer_rows if rows > 0)

    def latency_ms_batch(self, layer_name: str, out_rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`latency_ms` over an integer array of row counts.

        Every element of the result is the very float the scalar lookup would
        return for that row count (non-positive rows map to 0.0, enforced
        here, not delegated to the subclass's scalar guard) — the batch
        evaluation engine relies on this bit-exactness.  Subclasses override
        with true array programs where the representation allows it; this
        fallback evaluates element-wise and is always exact.
        """
        rows = np.asarray(out_rows)
        values = np.array(
            [self.latency_ms(layer_name, int(r)) for r in rows.ravel()]
        ).reshape(rows.shape)
        return np.where(rows > 0, values, 0.0)


def _points_by_layer(
    points: Mapping[str, Sequence[ProfiledLatency]],
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Convert profiler output into sorted (heights, latencies) arrays."""
    table: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, entries in points.items():
        if not entries:
            raise ValueError(f"layer {name!r} has no profiled points")
        heights = np.array([p.out_rows for p in entries], dtype=float)
        lats = np.array([p.latency_ms for p in entries], dtype=float)
        order = np.argsort(heights)
        table[name] = (heights[order], lats[order])
    return table


@dataclass
class TabularProfile(LatencyProfile):
    """Measured latency table with linear interpolation between heights."""

    table: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @classmethod
    def from_points(cls, points: Mapping[str, Sequence[ProfiledLatency]]) -> "TabularProfile":
        return cls(table=_points_by_layer(points))

    def layers(self) -> List[str]:
        return list(self.table)

    def latency_ms(self, layer_name: str, out_rows: int) -> float:
        if out_rows <= 0:
            return 0.0
        heights, lats = self._entry(layer_name)
        return float(np.interp(out_rows, heights, lats))

    def latency_ms_batch(self, layer_name: str, out_rows: np.ndarray) -> np.ndarray:
        # np.interp is element-wise, so the array call produces exactly the
        # floats the scalar lookups would.
        rows = np.asarray(out_rows)
        heights, lats = self._entry(layer_name)
        return np.where(rows > 0, np.interp(rows, heights, lats), 0.0)

    def _entry(self, layer_name: str) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self.table[layer_name]
        except KeyError:
            raise KeyError(
                f"layer {layer_name!r} not present in profile; known layers: {self.layers()}"
            ) from None


@dataclass
class LinearProfile(LatencyProfile):
    """Per-layer linear fit ``latency = slope * rows + intercept``.

    This is the representation the linear-model baselines implicitly assume:
    latency strictly proportional-ish to the number of rows, no staircase.
    """

    coeffs: Dict[str, Tuple[float, float]]  # layer -> (slope, intercept)

    @classmethod
    def from_points(cls, points: Mapping[str, Sequence[ProfiledLatency]]) -> "LinearProfile":
        coeffs: Dict[str, Tuple[float, float]] = {}
        for name, (heights, lats) in _points_by_layer(points).items():
            if heights.size == 1:
                slope = 0.0
                intercept = float(lats[0])
            else:
                slope, intercept = np.polyfit(heights, lats, 1)
            coeffs[name] = (float(slope), float(intercept))
        return cls(coeffs=coeffs)

    def layers(self) -> List[str]:
        return list(self.coeffs)

    def latency_ms(self, layer_name: str, out_rows: int) -> float:
        if out_rows <= 0:
            return 0.0
        try:
            slope, intercept = self.coeffs[layer_name]
        except KeyError:
            raise KeyError(f"layer {layer_name!r} not present in profile") from None
        return float(max(slope * out_rows + intercept, 0.0))

    def latency_ms_batch(self, layer_name: str, out_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(out_rows)
        try:
            slope, intercept = self.coeffs[layer_name]
        except KeyError:
            raise KeyError(f"layer {layer_name!r} not present in profile") from None
        # Same IEEE expression as the scalar form (integer rows are exact in
        # float64, so slope * rows + intercept matches term for term).
        fit = np.maximum(slope * rows + intercept, 0.0)
        return np.where(rows > 0, fit, 0.0)


@dataclass
class PiecewiseLinearProfile(LatencyProfile):
    """Piecewise-linear fit over a reduced set of knot heights."""

    knots: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @classmethod
    def from_points(
        cls,
        points: Mapping[str, Sequence[ProfiledLatency]],
        num_knots: int = 8,
    ) -> "PiecewiseLinearProfile":
        if num_knots < 2:
            raise ValueError(f"num_knots must be >= 2, got {num_knots}")
        knots: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, (heights, lats) in _points_by_layer(points).items():
            if heights.size <= num_knots:
                knots[name] = (heights, lats)
                continue
            idx = np.unique(np.linspace(0, heights.size - 1, num_knots).round().astype(int))
            knots[name] = (heights[idx], lats[idx])
        return cls(knots=knots)

    def layers(self) -> List[str]:
        return list(self.knots)

    def latency_ms(self, layer_name: str, out_rows: int) -> float:
        if out_rows <= 0:
            return 0.0
        try:
            heights, lats = self.knots[layer_name]
        except KeyError:
            raise KeyError(f"layer {layer_name!r} not present in profile") from None
        return float(np.interp(out_rows, heights, lats))

    def latency_ms_batch(self, layer_name: str, out_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(out_rows)
        try:
            heights, lats = self.knots[layer_name]
        except KeyError:
            raise KeyError(f"layer {layer_name!r} not present in profile") from None
        return np.where(rows > 0, np.interp(rows, heights, lats), 0.0)


@dataclass
class KNNProfile(LatencyProfile):
    """k-nearest-neighbour estimate over measured heights."""

    table: Dict[str, Tuple[np.ndarray, np.ndarray]]
    k: int = 3

    @classmethod
    def from_points(
        cls, points: Mapping[str, Sequence[ProfiledLatency]], k: int = 3
    ) -> "KNNProfile":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return cls(table=_points_by_layer(points), k=k)

    def layers(self) -> List[str]:
        return list(self.table)

    def latency_ms(self, layer_name: str, out_rows: int) -> float:
        if out_rows <= 0:
            return 0.0
        try:
            heights, lats = self.table[layer_name]
        except KeyError:
            raise KeyError(f"layer {layer_name!r} not present in profile") from None
        k = min(self.k, heights.size)
        dist = np.abs(heights - out_rows)
        nearest = np.argsort(dist)[:k]
        return float(lats[nearest].mean())


@dataclass(frozen=True)
class DeviceCapability:
    """Scalar 'computing capability' used by the linear-model baselines.

    ``macs_per_second`` is the effective throughput inferred from a full-model
    profile; the linear baselines assume latency of a split is
    ``macs / macs_per_second``.
    """

    device_type: str
    macs_per_second: float

    def latency_ms(self, macs: float) -> float:
        """Predicted latency of ``macs`` operations under the linear model."""
        if macs <= 0:
            return 0.0
        return macs / self.macs_per_second * 1000.0


def estimate_capability(
    model: ModelSpec,
    profile: LatencyProfile,
    device_type: str = "unknown",
) -> DeviceCapability:
    """Estimate a device's scalar capability from its profile.

    Capability = (total backbone MACs) / (predicted full-backbone latency);
    this is precisely the single number CoEdge / MoDNN / MeDNN / AOFL reduce a
    device to when deciding split ratios.
    """
    total_macs = 0
    total_ms = 0.0
    for layer in model.spatial_layers:
        total_macs += layer.macs
        total_ms += profile.latency_ms(layer.name, layer.out_h)
    if total_ms <= 0:
        raise ValueError("profile predicts non-positive full-model latency")
    return DeviceCapability(
        device_type=device_type,
        macs_per_second=total_macs / (total_ms / 1000.0),
    )


__all__ = [
    "LatencyProfile",
    "TabularProfile",
    "LinearProfile",
    "PiecewiseLinearProfile",
    "KNNProfile",
    "DeviceCapability",
    "estimate_capability",
]
