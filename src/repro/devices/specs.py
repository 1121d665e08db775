"""Device-type catalogue and device instances.

Each :class:`DeviceType` captures the parameters of the nonlinear compute
latency model (see :mod:`repro.devices.latency_model`):

* ``peak_macs_per_s`` — sustained multiply-accumulate throughput of the
  accelerator at full occupancy (calibrated so that whole-model VGG-16
  latencies reproduce the ordering Pi3 ≪ Nano < TX2 < Xavier reported by the
  NVIDIA Jetson benchmarks the paper cites),
* ``tile_rows`` — the row-granularity at which the accelerator schedules
  work; output heights are effectively padded up to a multiple of this tile,
  which is the source of the staircase nonlinearity in Fig. 14,
* ``launch_overhead_ms`` — fixed per-layer kernel launch / scheduling cost,
* ``mem_bandwidth_bytes_per_s`` — memory bandwidth for the roofline term.

The catalogue values are *calibration constants of the simulation*, not
measurements of real boards; the comment on :data:`DEVICE_CATALOG` below says
how they were chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class DeviceType:
    """Static description of an edge-device model (e.g. Jetson Xavier)."""

    name: str
    kind: str  # "gpu" or "cpu"
    peak_macs_per_s: float
    tile_rows: int
    launch_overhead_ms: float
    mem_bandwidth_bytes_per_s: float
    #: Memory available for activations/weights (bytes); the paper argues
    #: memory is never the binding constraint on these devices, but the value
    #: is tracked so the runtime can assert that assumption.
    memory_bytes: float = 4e9

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "cpu"):
            raise ValueError(f"kind must be 'gpu' or 'cpu', got {self.kind!r}")
        check_positive(self.peak_macs_per_s, "peak_macs_per_s")
        check_positive(self.tile_rows, "tile_rows")
        check_non_negative(self.launch_overhead_ms, "launch_overhead_ms")
        check_positive(self.mem_bandwidth_bytes_per_s, "mem_bandwidth_bytes_per_s")
        check_positive(self.memory_bytes, "memory_bytes")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Catalogue of the paper's four device types.  Throughputs are calibrated so
#: that single-device VGG-16 backbone latency reproduces the ordering and
#: rough ratios of the paper's testbed, where each layer runs as its own
#: TensorRT engine orchestrated from Python (slower than a fused
#: whole-network engine): Xavier ~50 ms, TX2 ~140 ms, Nano ~280 ms, Pi3 ~6 s.
DEVICE_CATALOG: Dict[str, DeviceType] = {
    "pi3": DeviceType(
        name="pi3",
        kind="cpu",
        peak_macs_per_s=2.5e9,
        tile_rows=1,
        launch_overhead_ms=0.80,
        mem_bandwidth_bytes_per_s=2.0e9,
        memory_bytes=1e9,
    ),
    "nano": DeviceType(
        name="nano",
        kind="gpu",
        peak_macs_per_s=5.5e10,
        tile_rows=8,
        launch_overhead_ms=0.20,
        mem_bandwidth_bytes_per_s=1.2e10,
        memory_bytes=4e9,
    ),
    "tx2": DeviceType(
        name="tx2",
        kind="gpu",
        peak_macs_per_s=1.1e11,
        tile_rows=16,
        launch_overhead_ms=0.15,
        mem_bandwidth_bytes_per_s=2.5e10,
        memory_bytes=8e9,
    ),
    "xavier": DeviceType(
        name="xavier",
        kind="gpu",
        peak_macs_per_s=3.1e11,
        tile_rows=16,
        launch_overhead_ms=0.10,
        mem_bandwidth_bytes_per_s=5.0e10,
        memory_bytes=16e9,
    ),
}


def get_device_type(name: str) -> DeviceType:
    """Look up a device type by name (case-insensitive)."""
    key = name.lower()
    try:
        return DEVICE_CATALOG[key]
    except KeyError:
        raise KeyError(
            f"unknown device type {name!r}; known types: {', '.join(sorted(DEVICE_CATALOG))}"
        ) from None


@dataclass(frozen=True)
class DeviceInstance:
    """A concrete service provider: a device type plus its network attachment.

    Attributes
    ----------
    device_id:
        Unique identifier within a cluster (e.g. ``"xavier-0"``).
    dtype:
        The :class:`DeviceType` describing compute behaviour.
    bandwidth_mbps:
        Nominal WiFi bandwidth of the device's link to the router (Mbps); the
        actual instantaneous throughput comes from a
        :class:`~repro.network.bandwidth.BandwidthTrace` built from this
        nominal value.
    """

    device_id: str
    dtype: DeviceType
    bandwidth_mbps: float = 300.0

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_mbps, "bandwidth_mbps")

    @property
    def type_name(self) -> str:
        return self.dtype.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.device_id}({self.dtype.name}@{self.bandwidth_mbps:g}Mbps)"


def make_cluster(
    spec: Sequence[tuple],
    default_bandwidth_mbps: float = 300.0,
) -> List[DeviceInstance]:
    """Build a provider list from ``(type_name, bandwidth_mbps)`` tuples.

    ``spec`` entries may be ``(type_name,)`` (uses the default bandwidth) or
    ``(type_name, bandwidth_mbps)``.  Device ids are assigned as
    ``"<type><index>"`` in order of appearance.

    Example
    -------
    >>> cluster = make_cluster([("xavier", 300), ("nano", 50), ("nano", 50)])
    >>> [d.device_id for d in cluster]
    ['xavier0', 'nano1', 'nano2']
    """
    devices: List[DeviceInstance] = []
    for index, entry in enumerate(spec):
        if isinstance(entry, str):
            type_name, bandwidth = entry, default_bandwidth_mbps
        elif len(entry) == 1:
            type_name, bandwidth = entry[0], default_bandwidth_mbps
        else:
            type_name, bandwidth = entry[0], float(entry[1])
        dtype = get_device_type(type_name)
        devices.append(
            DeviceInstance(
                device_id=f"{dtype.name}{index}",
                dtype=dtype,
                bandwidth_mbps=bandwidth,
            )
        )
    return devices


__all__ = [
    "DeviceType",
    "DeviceInstance",
    "DEVICE_CATALOG",
    "get_device_type",
    "make_cluster",
]
