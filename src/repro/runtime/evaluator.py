"""Single-image end-to-end latency evaluation of a distribution plan.

The evaluator builds the task graph of one inference — input scatter, per
volume compute on every participating provider, the redistribution between
consecutive volumes, the gather onto the head device (or the requester) and
the final result return — and schedules it over the per-device send /
receive / compute lanes and the WiFi links.  The result carries:

* the end-to-end latency (``1000 / latency`` is the paper's IPS metric,
  because an image is only sent after the previous result returned),
* the per-volume *accumulated latencies* ``T^l`` of every provider — exactly
  the quantity that forms the DRL state in Eq. 7,
* per-device compute and transmission busy times, from which Fig. 15's
  "max computing latency" / "max transmission latency" bars are produced.

The evaluator exposes its internal stepping (:class:`ScheduleState`,
:meth:`PlanEvaluator.process_volume`, :meth:`PlanEvaluator.finalize`) so the
OSDS MDP environment can advance one layer-volume at a time while observing
identical semantics to whole-plan evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.specs import DeviceInstance
from repro.network.topology import REQUESTER, NetworkModel
from repro.nn.splitting import SplitPart
from repro.runtime.lanes import LaneSet
from repro.runtime.oracles import ComputeOracle, GroundTruthComputeOracle, MemoizedComputeOracle
from repro.runtime.plan import DistributionPlan, VolumeAssignment, redistribution_bytes
from repro.utils.units import FP16_BYTES


@dataclass
class VolumeTiming:
    """Timing detail for one layer-volume of one inference."""

    volume_index: int
    ready_ms: np.ndarray  # when each provider's inputs were available
    finish_ms: np.ndarray  # when each provider finished its part (accumulated latency)
    compute_ms: np.ndarray  # pure compute duration of each provider's part
    recv_bytes: np.ndarray  # bytes received by each provider for this volume


@dataclass
class EvaluationResult:
    """Complete timing result of one distributed inference."""

    end_to_end_ms: float
    volume_timings: List[VolumeTiming]
    per_device_compute_ms: np.ndarray
    per_device_send_ms: np.ndarray
    per_device_recv_ms: np.ndarray
    scatter_end_ms: float
    head_device: Optional[int]
    head_compute_ms: float
    method: str = "unspecified"

    @property
    def ips(self) -> float:
        """Images per second under the paper's one-image-in-flight protocol.

        Raises :class:`ValueError` on a non-positive or NaN latency: every
        real inference pays at least the scatter and compute time, so a zero,
        negative or NaN ``end_to_end_ms`` always indicates a corrupted result,
        and silently returning ``inf`` or ``nan`` poisoned downstream
        aggregations like mean IPS and speedup-over-baseline ratios.
        """
        if not (self.end_to_end_ms > 0):
            raise ValueError(
                f"cannot compute IPS from non-positive end_to_end_ms={self.end_to_end_ms!r}; "
                "the evaluation result is corrupt"
            )
        return 1000.0 / self.end_to_end_ms

    @property
    def accumulated_latencies(self) -> List[np.ndarray]:
        """Per-volume accumulated latencies ``T^l`` (ms) of every provider."""
        return [vt.finish_ms.copy() for vt in self.volume_timings]

    @property
    def max_compute_ms(self) -> float:
        """Largest per-provider total compute time (Fig. 15 light bars)."""
        return float(self.per_device_compute_ms.max()) if self.per_device_compute_ms.size else 0.0

    @property
    def max_transmission_ms(self) -> float:
        """Largest per-provider transmission (send + receive) time (Fig. 15 dark bars)."""
        if self.per_device_send_ms.size == 0:
            return 0.0
        return float((self.per_device_send_ms + self.per_device_recv_ms).max())


@dataclass
class ScheduleState:
    """Mutable scheduling state carried across volumes of one inference."""

    lanes: LaneSet
    data_ready_ms: Dict[int, float]  # provider -> time its current rows are ready
    prev_parts: Optional[Tuple[SplitPart, ...]]
    accumulated: List[np.ndarray] = field(default_factory=list)
    volume_timings: List[VolumeTiming] = field(default_factory=list)
    scatter_end_ms: float = 0.0
    compute_ms_total: Optional[np.ndarray] = None


class PlanEvaluator:
    """Evaluates distribution plans on a device cluster and network.

    Parameters
    ----------
    devices:
        Service providers, in plan order.
    network:
        The WiFi star network connecting requester and providers.
    compute_oracle:
        Source of per-part compute latencies; defaults to the ground-truth
        nonlinear device model (i.e. "real execution").
    input_bytes_per_element:
        Bytes per input-tensor element for the requester's scatter of the
        *first* volume.  The requester ships encoded camera images (the
        testbed streams JPEG frames), not FP16 activations; the default of
        0.4 bytes per element corresponds to a ~60 KB JPEG for a 224x224 RGB
        frame.  Set to 1.0 for raw uint8 pixels or 2.0 for raw FP16 input.
        All inter-volume activation traffic stays FP16.
    memoize_compute:
        Wrap the compute oracle in a :class:`MemoizedComputeOracle` so that
        identical (volume, split) samples are never re-computed.  Memoization
        is behaviour-preserving (a hit returns the identical float) and is on
        by default; pass ``False`` to measure raw evaluator cost.
    """

    #: Default encoded-image size per input element (JPEG-compressed frames).
    DEFAULT_INPUT_BYTES_PER_ELEMENT: float = 0.4

    def __init__(
        self,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        compute_oracle: Optional[ComputeOracle] = None,
        input_bytes_per_element: float = DEFAULT_INPUT_BYTES_PER_ELEMENT,
        memoize_compute: bool = True,
    ) -> None:
        if network.num_providers != len(devices):
            raise ValueError(
                f"network has {network.num_providers} provider links for {len(devices)} devices"
            )
        if input_bytes_per_element <= 0:
            raise ValueError(
                f"input_bytes_per_element must be > 0, got {input_bytes_per_element}"
            )
        self.devices = list(devices)
        self.network = network
        oracle: ComputeOracle = compute_oracle or GroundTruthComputeOracle(devices)
        if memoize_compute and not isinstance(oracle, MemoizedComputeOracle):
            oracle = MemoizedComputeOracle(oracle)
        self.oracle = oracle
        self.input_bytes_per_element = float(input_bytes_per_element)

    # ------------------------------------------------------------------ #
    # stepping API (used by the OSDS environment)
    # ------------------------------------------------------------------ #
    def new_state(self) -> ScheduleState:
        """Fresh scheduling state for a new inference (time 0 = image ready)."""
        return ScheduleState(
            lanes=LaneSet(),
            data_ready_ms={},
            prev_parts=None,
            compute_ms_total=np.zeros(len(self.devices)),
        )

    def _transfer(
        self,
        state: ScheduleState,
        src: int,
        dst: int,
        n_bytes: int,
        earliest_ms: float,
        t_seconds: float,
    ) -> float:
        """Schedule one transfer across the sender's send and receiver's recv lanes."""
        if n_bytes <= 0 or src == dst:
            return earliest_ms
        duration = self.network.transfer_latency_ms(src, dst, n_bytes, t_seconds)
        send = state.lanes.lane(src, "send")
        recv = state.lanes.lane(dst, "recv")
        start = max(earliest_ms, send.free_at, recv.free_at)
        end = start + duration
        send.free_at = end
        send.busy_ms += duration
        send.jobs += 1
        recv.free_at = end
        recv.busy_ms += duration
        recv.jobs += 1
        return end

    def process_volume(
        self,
        state: ScheduleState,
        assignment: VolumeAssignment,
        t_seconds: float = 0.0,
    ) -> np.ndarray:
        """Schedule one layer-volume; returns the accumulated latencies ``T^l``."""
        n = len(self.devices)
        ready = np.zeros(n)
        finish = np.zeros(n)
        compute = np.zeros(n)
        recv_bytes = np.zeros(n)

        prev_finish = (
            state.accumulated[-1] if state.accumulated else np.zeros(n)
        )
        row_bytes = assignment.volume.first.in_w * assignment.volume.first.in_c * FP16_BYTES

        if state.prev_parts is None:
            # First volume: the requester scatters each provider's exact
            # input rows (the image was split beforehand by the controller).
            # The scatter carries image pixels, so its size uses the input
            # encoding rather than the FP16 activation size.
            in_w = assignment.volume.first.in_w
            in_c = assignment.volume.first.in_c
            transfers: Dict[Tuple[int, int], int] = {
                (REQUESTER, p.device_index): int(
                    round(p.num_input_rows * in_w * in_c * self.input_bytes_per_element)
                )
                for p in assignment.parts
                if not p.is_empty
            }
        else:
            transfers = redistribution_bytes(state.prev_parts, assignment.parts, row_bytes)

        for part in assignment.parts:
            j = part.device_index
            if part.is_empty:
                # Provider does not participate in this volume; its
                # accumulated latency carries over unchanged.
                finish[j] = prev_finish[j]
                ready[j] = prev_finish[j]
                continue
            arrival = 0.0
            for (src, dst), n_bytes in transfers.items():
                if dst != j:
                    continue
                source_ready = 0.0 if src == REQUESTER else state.data_ready_ms.get(src, 0.0)
                end = self._transfer(state, src, dst, n_bytes, source_ready, t_seconds)
                arrival = max(arrival, end)
                recv_bytes[j] += n_bytes
            # Rows the provider already holds locally from the previous volume.
            local_ready = 0.0
            if state.prev_parts is not None:
                prev_part = state.prev_parts[j]
                if not prev_part.is_empty:
                    need_lo, need_hi = part.in_rows
                    have_lo, have_hi = prev_part.out_rows
                    if min(need_hi, have_hi) > max(need_lo, have_lo):
                        local_ready = state.data_ready_ms.get(j, 0.0)
            ready[j] = max(arrival, local_ready)
            duration = self.oracle.part_latency_ms(j, assignment.volume, part)
            compute[j] = duration
            _, end = state.lanes.schedule(j, "compute", ready[j], duration)
            finish[j] = end
            state.compute_ms_total[j] += duration

        # Update data ownership for the next boundary.
        for part in assignment.parts:
            j = part.device_index
            state.data_ready_ms[j] = finish[j] if not part.is_empty else 0.0
        state.prev_parts = assignment.parts
        state.accumulated.append(finish.copy())
        state.volume_timings.append(
            VolumeTiming(
                volume_index=len(state.volume_timings),
                ready_ms=ready,
                finish_ms=finish.copy(),
                compute_ms=compute,
                recv_bytes=recv_bytes,
            )
        )
        if state.prev_parts is not None and len(state.volume_timings) == 1:
            state.scatter_end_ms = float(ready.max())
        return finish.copy()

    def finalize(
        self,
        state: ScheduleState,
        plan: DistributionPlan,
        t_seconds: float = 0.0,
    ) -> EvaluationResult:
        """Schedule gather / head / result return and assemble the result."""
        if not state.volume_timings:
            raise ValueError("finalize called before any volume was processed")
        n = len(self.devices)
        last_assignment = plan.assignment(plan.num_volumes - 1)
        head_layers = plan.model.head_layers
        head_compute_ms = 0.0

        if head_layers:
            head = plan.head_device
            # Gather every other provider's output rows onto the head device.
            gather_ready = state.data_ready_ms.get(head, 0.0)
            for part in last_assignment.parts:
                j = part.device_index
                if part.is_empty or j == head:
                    continue
                end = self._transfer(
                    state, j, head, part.output_bytes, state.data_ready_ms.get(j, 0.0), t_seconds
                )
                gather_ready = max(gather_ready, end)
            head_compute_ms = self.oracle.head_latency_ms(head, head_layers)
            _, head_end = state.lanes.schedule(head, "compute", gather_ready, head_compute_ms)
            state.compute_ms_total[head] += head_compute_ms
            result_bytes = head_layers[-1].output_bytes
            end_to_end = self._transfer(state, head, REQUESTER, result_bytes, head_end, t_seconds)
            head_device: Optional[int] = head
        else:
            # No dense head (e.g. YOLOv2): each provider returns its own
            # output rows to the requester.
            end_to_end = 0.0
            for part in last_assignment.parts:
                j = part.device_index
                if part.is_empty:
                    continue
                end = self._transfer(
                    state, j, REQUESTER, part.output_bytes, state.data_ready_ms.get(j, 0.0), t_seconds
                )
                end_to_end = max(end_to_end, end)
            head_device = None

        per_send = np.array([state.lanes.busy_ms(j, "send") for j in range(n)])
        per_recv = np.array([state.lanes.busy_ms(j, "recv") for j in range(n)])
        return EvaluationResult(
            end_to_end_ms=float(end_to_end),
            volume_timings=state.volume_timings,
            per_device_compute_ms=state.compute_ms_total.copy(),
            per_device_send_ms=per_send,
            per_device_recv_ms=per_recv,
            scatter_end_ms=state.scatter_end_ms,
            head_device=head_device,
            head_compute_ms=head_compute_ms,
            method=plan.method,
        )

    # ------------------------------------------------------------------ #
    def evaluate(self, plan: DistributionPlan, t_seconds: float = 0.0) -> EvaluationResult:
        """Evaluate a complete plan for one inference starting at ``t_seconds``.

        ``t_seconds`` indexes into the bandwidth traces, so the same plan can
        be evaluated under the instantaneous network conditions of any moment
        of a trace (used by the dynamic-network experiments).
        """
        if plan.num_devices != len(self.devices):
            raise ValueError(
                f"plan covers {plan.num_devices} devices, evaluator has {len(self.devices)}"
            )
        state = self.new_state()
        for assignment in plan.assignments:
            self.process_volume(state, assignment, t_seconds)
        return self.finalize(state, plan, t_seconds)

    def ips(self, plan: DistributionPlan, t_seconds: float = 0.0) -> float:
        """Convenience wrapper returning images-per-second for a plan."""
        return self.evaluate(plan, t_seconds).ips


__all__ = ["PlanEvaluator", "EvaluationResult", "VolumeTiming", "ScheduleState"]
