"""Distribution plans and the redistribution-volume arithmetic.

A :class:`DistributionPlan` is the complete output of a distribution method
(DistrEdge or any baseline): the horizontal partition of the model into
layer-volumes, a vertical split decision per volume, and the placement of the
trailing dense head.  The same plan object is consumed by the latency
evaluator, the streaming simulator, the cost models, and the numerical
split-correctness checks, which keeps every method comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devices.specs import DeviceInstance
from repro.nn.graph import LayerVolume, ModelSpec, cached_partition
from repro.nn.splitting import SplitDecision, SplitPart, split_volume
from repro.utils.units import FP16_BYTES


@dataclass(frozen=True)
class VolumeAssignment:
    """A layer-volume together with its split into per-provider parts."""

    volume: LayerVolume
    decision: SplitDecision
    parts: Tuple[SplitPart, ...]

    @property
    def active_devices(self) -> List[int]:
        """Indices of providers that received a non-empty part."""
        return [p.device_index for p in self.parts if not p.is_empty]


def scatter_bytes(parts: Sequence[SplitPart]) -> int:
    """Bytes the requester must scatter to providers for the first volume.

    Every provider needs its part's exact input rows; rows needed by several
    providers (the halo overlap) are sent to each of them, as in the real
    system where the image is "split beforehand according to the distribution
    strategy".
    """
    return sum(p.input_bytes for p in parts if not p.is_empty)


def redistribution_bytes(
    prev_parts: Sequence[SplitPart],
    cur_parts: Sequence[SplitPart],
    row_bytes: int,
) -> Dict[Tuple[int, int], int]:
    """Per-(source, destination) bytes exchanged at a volume boundary.

    ``prev_parts`` are the parts of volume *l-1* (their ``out_rows`` describe
    which provider holds which rows of the tensor entering volume *l*);
    ``cur_parts`` are the parts of volume *l* (their ``in_rows`` describe
    which rows each provider needs).  ``row_bytes`` is the size of one row of
    that tensor.  Rows a provider already holds locally are never
    transferred; the returned dict maps ``(src_device, dst_device)`` to the
    transferred byte count and contains only non-zero, non-local entries.
    """
    transfers: Dict[Tuple[int, int], int] = {}
    for cur in cur_parts:
        if cur.is_empty:
            continue
        need_lo, need_hi = cur.in_rows
        if need_hi <= need_lo:
            continue
        for prev in prev_parts:
            if prev.is_empty or prev.device_index == cur.device_index:
                continue
            have_lo, have_hi = prev.out_rows
            lo = max(need_lo, have_lo)
            hi = min(need_hi, have_hi)
            if hi > lo:
                key = (prev.device_index, cur.device_index)
                transfers[key] = transfers.get(key, 0) + (hi - lo) * row_bytes
    return transfers


class DistributionPlan:
    """A complete CNN inference distribution strategy.

    Parameters
    ----------
    model:
        The CNN model being distributed.
    devices:
        The service providers, in the order referenced by split decisions.
    boundaries:
        Horizontal partition scheme: strictly increasing indices over the
        spatial layers, starting at 0 and ending at
        ``model.num_spatial_layers``.
    decisions:
        One :class:`~repro.nn.splitting.SplitDecision` per layer-volume, each
        with ``num_devices == len(devices)``.
    head_device:
        Provider computing the trailing dense layers; ``None`` (default)
        places it on the provider holding the largest share of the last
        volume, as the paper does.
    method:
        Name of the method that produced the plan (for reporting).
    """

    def __init__(
        self,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
        boundaries: Sequence[int],
        decisions: Sequence[SplitDecision],
        head_device: Optional[int] = None,
        method: str = "unspecified",
    ) -> None:
        self.model = model
        self.devices = list(devices)
        self.boundaries = [int(b) for b in boundaries]
        self.decisions = list(decisions)
        self.method = method

        # Memoized: plans sharing (model, boundaries), such as every OSDS
        # episode on one partition, share volume objects.
        self._volumes = cached_partition(model, self.boundaries)
        if len(self._volumes) != len(self.decisions):
            raise ValueError(
                f"partition has {len(self._volumes)} volumes but {len(self.decisions)} "
                "split decisions were provided"
            )
        for volume, decision in zip(self._volumes, self.decisions):
            if decision.num_devices != len(self.devices):
                raise ValueError(
                    f"decision for volume [{volume.start}, {volume.end}) covers "
                    f"{decision.num_devices} devices, cluster has {len(self.devices)}"
                )
            if decision.output_height != volume.output_height:
                raise ValueError(
                    f"decision output height {decision.output_height} does not match "
                    f"volume output height {volume.output_height}"
                )
        self._assignments = [
            VolumeAssignment(volume=v, decision=d, parts=tuple(split_volume(v, d)))
            for v, d in zip(self._volumes, self.decisions)
        ]
        if head_device is None:
            head_device = self.largest_share_device(-1)
        if not 0 <= head_device < len(self.devices):
            raise ValueError(f"head_device {head_device} out of range")
        self.head_device = head_device

    # ------------------------------------------------------------------ #
    @property
    def num_volumes(self) -> int:
        return len(self._assignments)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def volumes(self) -> List[LayerVolume]:
        return list(self._volumes)

    @property
    def assignments(self) -> List[VolumeAssignment]:
        return list(self._assignments)

    def assignment(self, volume_index: int) -> VolumeAssignment:
        return self._assignments[volume_index]

    def same_strategy(self, other: "DistributionPlan") -> bool:
        """Whether ``other`` encodes the same strategy (content, not identity).

        Two plans are the same strategy when they distribute the same model
        with identical partition boundaries, identical per-volume cut points
        and the same head placement — the exact key the evaluation cache uses,
        so same-strategy plans are guaranteed the same latency.  The method
        label and the device *objects* are ignored (the adaptation path
        rebuilds plans; an equal-but-reconstructed plan is not a replan).
        """
        if self is other:
            return True
        same_model = other.model is self.model or (
            other.model.name == self.model.name
            and other.model.input_shape == self.model.input_shape
            and other.model.layers == self.model.layers
        )
        return (
            same_model
            and self.boundaries == other.boundaries
            and [d.cuts for d in self.decisions] == [d.cuts for d in other.decisions]
            and self.head_device == other.head_device
        )

    def largest_share_device(self, volume_index: int) -> int:
        """Provider with the most output rows of the given volume (default head)."""
        assignment = self._assignments[volume_index]
        rows = assignment.decision.rows_per_device()
        return int(max(range(len(rows)), key=lambda i: rows[i]))

    # ------------------------------------------------------------------ #
    def total_macs(self) -> int:
        """Total MACs executed across all providers (includes halo recomputation)."""
        total = sum(p.macs for a in self._assignments for p in a.parts)
        total += self.model.head_macs
        return int(total)

    def recomputation_overhead(self) -> float:
        """Fraction of extra backbone MACs relative to single-device execution."""
        backbone = self.model.backbone_macs
        parts_macs = sum(p.macs for a in self._assignments for p in a.parts)
        if backbone == 0:
            return 0.0
        return parts_macs / backbone - 1.0

    def total_transmission_bytes(self) -> int:
        """Total bytes moved between endpoints for one inference.

        Includes the requester's scatter of the first volume's inputs, every
        volume-boundary redistribution, the gather of the last volume's
        output onto the head device (or the requester when there is no dense
        head), and the final result return.
        """
        total = scatter_bytes(self._assignments[0].parts)
        for prev, cur in zip(self._assignments, self._assignments[1:]):
            row_bytes = cur.volume.first.in_w * cur.volume.first.in_c * FP16_BYTES
            total += sum(redistribution_bytes(prev.parts, cur.parts, row_bytes).values())
        last = self._assignments[-1]
        head_layers = self.model.head_layers
        gather_target = self.head_device if head_layers else None
        for part in last.parts:
            if part.is_empty:
                continue
            if gather_target is None or part.device_index != gather_target:
                total += part.output_bytes
        if head_layers:
            total += head_layers[-1].output_bytes
        return int(total)

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        lines = [
            f"DistributionPlan(method={self.method!r}, model={self.model.name!r}, "
            f"volumes={self.num_volumes}, devices={self.num_devices})"
        ]
        for idx, a in enumerate(self._assignments):
            rows = a.decision.rows_per_device()
            lines.append(
                f"  volume {idx}: layers [{a.volume.start}, {a.volume.end}) "
                f"H={a.volume.output_height} rows={rows}"
            )
        lines.append(f"  head device: {self.devices[self.head_device].device_id}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    @classmethod
    def single_device(
        cls,
        model: ModelSpec,
        devices: Sequence[DeviceInstance],
        device_index: int,
        method: str = "offload",
    ) -> "DistributionPlan":
        """Plan that offloads the whole model to a single provider."""
        boundaries = model.single_volume_partition()
        volume = model.partition(boundaries)[0]
        decision = SplitDecision.single_device(device_index, len(devices), volume.output_height)
        return cls(
            model=model,
            devices=devices,
            boundaries=boundaries,
            decisions=[decision],
            head_device=device_index,
            method=method,
        )


__all__ = [
    "VolumeAssignment",
    "DistributionPlan",
    "redistribution_bytes",
    "scatter_bytes",
]
