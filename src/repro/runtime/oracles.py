"""Compute-latency oracles used by the schedule evaluator.

The evaluator is agnostic about *where* per-part compute latencies come
from.  Two oracles are provided:

* :class:`GroundTruthComputeOracle` — queries the device latency model
  directly.  This is the "real execution on devices" path: the paper's final
  IPS numbers are measured on real hardware, and this oracle plays that role
  in the simulation.
* :class:`ProfileComputeOracle` — queries per-device latency *profiles*
  (tables or regression models).  This is the controller's view of the world
  and is what planners (and optionally OSDS training) use; the difference
  between the two oracles is exactly the profiling error a real deployment
  would face.

Both can be wrapped in a :class:`MemoizedComputeOracle`, which caches
per-part latencies keyed on ``(device, layer-volume, output rows)``.  Both
underlying oracles are deterministic functions of that key, so memoization
returns the *identical* float and cannot change any schedule — it only
removes the re-computation of identical (partition, split) samples that the
OSDS episode loop and LC-PSS re-voting otherwise pay for over and over.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.devices.latency_model import ComputeLatencyModel
from repro.devices.profiles import LatencyProfile
from repro.devices.specs import DeviceInstance
from repro.nn.graph import LayerVolume
from repro.nn.layers import LayerSpec
from repro.nn.splitting import SplitPart
from repro.utils.cache import LRUCache
from repro.utils.fold import fold_sum


class ComputeOracle(Protocol):
    """Interface: per-part and per-head compute latency predictions."""

    def part_latency_ms(self, device_index: int, volume: LayerVolume, part: SplitPart) -> float:
        """Latency of one split-part on one provider."""
        ...

    def head_latency_ms(self, device_index: int, head_layers: Sequence[LayerSpec]) -> float:
        """Latency of the trailing dense layers on one provider."""
        ...


class GroundTruthComputeOracle:
    """Oracle backed by the nonlinear device latency model (real execution)."""

    def __init__(self, devices: Sequence[DeviceInstance]) -> None:
        self.devices = list(devices)
        self._models = [ComputeLatencyModel(d.dtype) for d in self.devices]

    def part_latency_ms(self, device_index: int, volume: LayerVolume, part: SplitPart) -> float:
        return self._models[device_index].part(part, volume)

    def head_latency_ms(self, device_index: int, head_layers: Sequence[LayerSpec]) -> float:
        model = self._models[device_index]
        return fold_sum(model.layer(layer) for layer in head_layers)


class ProfileComputeOracle:
    """Oracle backed by per-device latency profiles (the controller's view).

    Parameters
    ----------
    devices:
        The providers (needed for head-latency fallback).
    profiles:
        One :class:`~repro.devices.profiles.LatencyProfile` per provider,
        indexed like ``devices``.  Typically profiles are built per device
        *type* and shared by providers of the same type, exactly as the paper
        profiles each of its four device types once.
    """

    def __init__(
        self,
        devices: Sequence[DeviceInstance],
        profiles: Sequence[LatencyProfile],
    ) -> None:
        if len(devices) != len(profiles):
            raise ValueError(
                f"{len(devices)} devices but {len(profiles)} profiles were provided"
            )
        self.devices = list(devices)
        self.profiles = list(profiles)
        self._fallback = GroundTruthComputeOracle(devices)

    def part_latency_ms(self, device_index: int, volume: LayerVolume, part: SplitPart) -> float:
        if part.is_empty:
            return 0.0
        profile = self.profiles[device_index]
        layer_rows = [
            (layer.name, b - a) for layer, (a, b) in zip(volume.layers, part.layer_out_rows)
        ]
        return profile.volume_latency_ms(layer_rows)

    def head_latency_ms(self, device_index: int, head_layers: Sequence[LayerSpec]) -> float:
        # Dense layers are not part of the split profiles (they are never
        # split); fall back to the device model, as the controller would use
        # a separate single measurement for the head.
        return self._fallback.head_latency_ms(device_index, head_layers)


class MemoizedComputeOracle:
    """Memoizing wrapper around any :class:`ComputeOracle`.

    The latency of a split-part is fully determined by the provider, the
    layer-volume and the part's output row range (the per-sub-layer row
    ranges follow deterministically via the exact VSL arithmetic), so the
    logical cache key is ``(volume, device_index, out_rows)``.  The cache is
    two-level: volumes resolve to an inner table first by object identity
    (the splitting MDP re-uses the same volume objects across thousands of
    episodes) and only on an identity miss by *structural* equality —
    :class:`LayerVolume` is a frozen dataclass — so equal volumes built by
    different :class:`DistributionPlan` objects, or seeded by the vectorised
    batch engine, share one table while the hot path never re-hashes a
    volume.

    Wrapping is behaviour-preserving by construction: a hit returns the very
    float a miss would have computed.
    """

    def __init__(self, base: ComputeOracle, max_entries: int = 1 << 20) -> None:
        if isinstance(base, MemoizedComputeOracle):
            base = base.base
        self.base: ComputeOracle = base
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._entries = 0
        # Structural volume -> {(device_index, out_rows): latency_ms}.
        self._by_volume: Dict[LayerVolume, Dict[Tuple, float]] = {}
        # Identity fast path; the referenced volumes are kept alive by
        # _by_volume's keys plus _id_refs, so ids cannot be recycled.
        self._by_id: Dict[int, Dict[Tuple, float]] = {}
        self._id_refs: Dict[int, LayerVolume] = {}
        self._head_cache = LRUCache(256)

    #: Bound on the identity fast-path map.  Every freshly partitioned plan
    #: creates new (structurally equal) volume objects, so the id map grows
    #: with plan churn even though the structural tables stay flat; resetting
    #: it merely costs the next lookup one structural hash per volume.
    _ID_MAP_LIMIT = 8192

    def _table(self, volume: LayerVolume) -> Dict[Tuple, float]:
        table = self._by_id.get(id(volume))
        if table is None:
            if len(self._by_id) >= self._ID_MAP_LIMIT:
                self._by_id.clear()
                self._id_refs.clear()
            table = self._by_volume.get(volume)
            if table is None:
                table = {}
                self._by_volume[volume] = table
            self._by_id[id(volume)] = table
            self._id_refs[id(volume)] = volume
        return table

    def part_latency_ms(self, device_index: int, volume: LayerVolume, part: SplitPart) -> float:
        if part.is_empty:
            # Both concrete oracles return 0.0 for empty parts.
            return 0.0
        table = self._table(volume)
        key = (device_index, part.out_rows)
        value = table.get(key)
        if value is None:
            self.misses += 1
            value = self.base.part_latency_ms(device_index, volume, part)
            self._insert(table, key, value)
        else:
            self.hits += 1
        return value

    def head_latency_ms(self, device_index: int, head_layers: Sequence[LayerSpec]) -> float:
        # Head layers are never split: one entry per (device, head) suffices
        # and the tuple being hashed is tiny.
        key = ("head", device_index, tuple(head_layers))
        value = self._head_cache.get(key)
        if value is None:
            self.misses += 1
            value = self.base.head_latency_ms(device_index, head_layers)
            self._head_cache.put(key, value)
        else:
            self.hits += 1
        return value

    def _insert(self, table: Dict[Tuple, float], key: Tuple, value: float) -> None:
        if self._entries >= self.max_entries:
            # Degenerate workloads (e.g. sweeping every possible split of a
            # huge model) could grow without bound; a full reset is cheap and
            # keeps the wrapper behaviour-preserving (the dropped entries are
            # simply recomputed on the next lookup).  ``table`` keeps working
            # as a detached scratch dict until its volume is re-registered.
            self.clear()
            table.clear()
        if key not in table:
            self._entries += 1
        table[key] = value

    # -- batch-path integration ------------------------------------------- #
    def seed_parts(
        self,
        volume: LayerVolume,
        items: Mapping[Tuple[int, Tuple[int, int]], float],
    ) -> None:
        """Bulk-insert part latencies computed by the vectorised batch engine.

        ``items`` maps ``(device_index, out_rows)`` to latency.  The batch
        engine mirrors the scalar latency model operation-for-operation, so
        seeded values are bit-identical to what a miss would compute
        (asserted by the parity test suite).
        """
        table = self._table(volume)
        for key, value in items.items():
            if key not in table:
                self._insert(table, key, float(value))

    def cache_info(self) -> dict:
        return {
            "size": self._entries,
            "maxsize": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._by_volume.clear()
        self._by_id.clear()
        self._id_refs.clear()
        self._head_cache.clear()
        self._entries = 0
        self.hits = 0
        self.misses = 0


def unwrap_oracle(oracle: Optional[ComputeOracle]) -> Optional[ComputeOracle]:
    """Return the concrete oracle behind an optional memoizing wrapper."""
    if isinstance(oracle, MemoizedComputeOracle):
        return oracle.base
    return oracle


def profiles_by_device(
    devices: Sequence[DeviceInstance],
    per_type_profiles: Mapping[str, LatencyProfile],
) -> List[LatencyProfile]:
    """Expand per-device-type profiles to a per-provider list.

    The paper profiles each device *type* once and reuses the result for all
    providers of that type; this helper performs the expansion and raises a
    ``KeyError`` naming the missing type otherwise.
    """
    out: List[LatencyProfile] = []
    for d in devices:
        try:
            out.append(per_type_profiles[d.type_name])
        except KeyError:
            raise KeyError(
                f"no profile for device type {d.type_name!r}; available: "
                f"{sorted(per_type_profiles)}"
            ) from None
    return out


__all__ = [
    "ComputeOracle",
    "GroundTruthComputeOracle",
    "MemoizedComputeOracle",
    "ProfileComputeOracle",
    "profiles_by_device",
    "unwrap_oracle",
]
