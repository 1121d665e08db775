"""Batched plan evaluation: many inferences scheduled as one array program.

:class:`~repro.runtime.evaluator.PlanEvaluator` walks one plan at a time
through Python loops — fine for a single inference, but the planner stack
(LC-PSS re-voting, OSDS episodes, heuristic seeding, online candidate
scoring, figure regeneration) evaluates *thousands* of plans, and that loop
is the hottest path in the repository.  :class:`BatchPlanEvaluator` removes
it in three complementary ways:

1. **Vectorisation.**  All plans that share a model and a partition scheme
   are scheduled together: per layer-volume, one sweep over the canonical
   transfer order updates ``(batch,)``-shaped lane vectors, and per-part
   compute latencies are evaluated as ``(batch, devices)`` NumPy arrays, one
   fused expression per sub-layer, instead of per-plan Python loops.  The
   vectorised engine mirrors the scalar evaluator *operation for operation*
   (same float operands, same order, same ``max``/``+`` structure), so its
   results are bit-identical — asserted down to exact equality by the parity
   tests, which is what allows DDPG/LC-PSS/OSDS to route through this path
   without changing a single reported number.

2. **Compiled plans.**  Array scheduling only pays off across enough
   plans, and on a dynamic network every request is a group of one.  A
   group below the measured crossover (:func:`_walks_group`) walks each
   plan's :class:`CompiledPlan` instead: the transfers, I/O overheads,
   local-overlap flags and part durations of one plan, built once and kept
   in an LRU keyed on ``(model, plan structure)``, walked at the one link
   rate vector sampled for the evaluation instant.  The contention-aware
   walk over a :class:`BatchPlanEvaluator` reuses the same compiled plans.
   The walk books the scalar evaluator's lanes with its floats, so it is
   bit-identical too; :class:`PlanEvaluator` keeps its dict walk as the
   oracle.

3. **Memoization.**  Full evaluations are cached in an LRU keyed on
   ``(model, partition boundaries, split decisions, head placement,
   network state)``.  The network-state component is the tuple of
   instantaneous per-endpoint throughputs, so on a constant network the same
   plan is never evaluated twice regardless of ``t_seconds``, while dynamic
   traces naturally miss whenever conditions actually changed.  The batch
   engine additionally seeds the shared per-part
   :class:`~repro.runtime.oracles.MemoizedComputeOracle`, so the splitting
   MDP's step-by-step replay of a batch-evaluated plan (e.g. OSDS heuristic
   seed episodes) finds its compute latencies pre-paid.

Cache invalidation rules: entries are only reused when the *entire* key
matches — a changed bandwidth trace value, a different split decision, a
different head device or a structurally different model all produce new
keys.  Mutating a model or network in place after evaluation is not
supported (nothing in the repository does); build new objects instead.
Cached :class:`EvaluationResult` objects are shared between hits — treat
them as immutable.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice, repeat
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.specs import DeviceInstance
from repro.network.topology import REQUESTER, NetworkModel
from repro.obs.profile import NULL_PROFILER
from repro.nn.graph import LayerVolume, ModelSpec
from repro.nn.layers import LayerSpec
from repro.runtime.evaluator import (
    EvaluationResult,
    PlanEvaluator,
    ScheduleState,
    VolumeTiming,
)
from repro.runtime.lanes import LaneSet
from repro.runtime.oracles import (
    ComputeOracle,
    GroundTruthComputeOracle,
    MemoizedComputeOracle,
    ProfileComputeOracle,
    unwrap_oracle,
)
from repro.runtime.plan import DistributionPlan
from repro.utils.cache import LRUCache
from repro.utils.units import FP16_BYTES, MBPS


def plan_signature(plan: DistributionPlan) -> Tuple:
    """Structural identity of a plan: partition, split decisions, head.

    Together with a model token and the network-state signature this fully
    determines the evaluation result; the planner method name is excluded
    (it only labels the result and is patched on cache hits).
    """
    return (
        tuple(plan.boundaries),
        tuple(d.cuts for d in plan.decisions),
        plan.head_device,
    )


def network_state_signature(network: NetworkModel, t_seconds: float) -> Tuple[float, ...]:
    """Instantaneous per-endpoint throughputs — all the schedule depends on.

    The scalar evaluator samples every link's throughput at the single time
    ``t_seconds``; transmission-model constants are static per link.  Two
    moments with identical signatures therefore produce identical schedules,
    which is what makes the plan cache sound across time on constant (and
    piecewise-constant) traces.
    """
    thr = tuple(link.throughput_mbps(t_seconds) for link in network.provider_links)
    return thr + (network.requester_link.throughput_mbps(t_seconds),)


def network_state_signatures(network: NetworkModel, t_seconds: np.ndarray) -> np.ndarray:
    """Signature *matrix*: one :func:`network_state_signature` row per time.

    Returns a ``(times, links + 1)`` float64 array whose row ``i`` equals
    ``network_state_signature(network, t_seconds[i])`` element for element
    (traces vectorise their own sampling, see
    :meth:`~repro.network.bandwidth.BandwidthTrace.throughput_mbps_array`).
    The array serving engine verifies whole speculation windows against one
    assumed signature with a single vectorised comparison over this matrix
    instead of per-request Python link walks.
    """
    ts = np.asarray(t_seconds, dtype=np.float64)
    columns = [link.trace.throughput_mbps_array(ts) for link in network.provider_links]
    columns.append(network.requester_link.trace.throughput_mbps_array(ts))
    return np.column_stack(columns)


def _required_rows_vec(
    layer: LayerSpec, out_lo: np.ndarray, out_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.nn.splitting.required_input_rows` (exact ints)."""
    empty = out_hi <= out_lo
    lo = np.maximum(out_lo * layer.stride - layer.padding, 0)
    hi = np.minimum((out_hi - 1) * layer.stride - layer.padding + layer.kernel, layer.in_h)
    return np.where(empty, 0, lo), np.where(empty, 0, hi)


def _walks_group(devices: int, volumes: int, plans: int) -> bool:
    """Whether a group of ``plans`` sharing boundaries walks compiled plans.

    The array sweep books every (source, destination) pair of every volume
    whatever the group size, while a walk books only its own plan's
    transfers, so the group size where the sweep starts to win grows with
    the devices, and with the volumes.  Measured cold (fresh evaluator,
    vgg16 on ``gen:n=N`` fleets at seed 17, random splits sharing the
    boundaries, groups compiled together; median of 7 on a 2-vCPU VM),
    sweep time over walk time, below 1 where the sweep wins:

    ======= ======= ===== ===== ==== ==== ==== ==== ==== ==== ====
    devices volumes k=2   3     4    6    8    12   16   32   64
    ======= ======= ===== ===== ==== ==== ==== ==== ==== ==== ====
    4       3       1.38  1.37  1.33 1.14 1.08 0.93 0.79 0.57 0.41
    4       6       1.50  1.54  1.51 1.37 1.18 1.04 0.93 0.55 0.42
    4       18      2.11  1.79  1.75 1.53 1.34 1.49 0.99 0.48 0.51
    8       3       2.29  2.50  2.78 1.74 1.46 1.34 1.15 0.64 0.40
    8       6       3.11  2.59  1.92 2.05 2.06 1.46 1.20 0.69 0.80
    8       18      4.43  3.77  3.38 2.44 2.09 0.84 1.80 1.00 0.57
    16      3       4.44  4.03  3.63 2.95 2.49 3.01 1.52 0.41 0.48
    16      6       6.94  8.57  3.99 4.86 2.21 2.52 1.74 1.09 0.53
    16      18      8.91  8.75  5.46 3.91 4.36 2.73 2.35 1.15 0.41
    32      3       12.31 7.77  5.93 5.26 4.45 3.04 2.60 1.46 0.69
    32      6       10.38 9.83  6.87 3.24 5.82 3.36 3.43 1.71 1.00
    32      18      15.46 13.93 8.98 7.99 5.84 4.95 3.25 1.60 1.03
    ======= ======= ===== ===== ==== ==== ==== ==== ==== ==== ====

    Groups smaller than ``1.5 * devices + volumes`` walk (measured on 4 to
    32 devices only).  Sparse plans favour the sweep, whose masks skip idle
    devices: groups of the single-device plans of every provider (one
    volume) read 0.87, 1.15 and 0.72 at 4, 16 and 32 devices.
    """
    return plans < 1.5 * devices + volumes


def _volume_rows(volume: LayerVolume, cuts: np.ndarray):
    """Row arithmetic of one volume's parts under ``(batch, devices - 1)``
    cut points: ``(out_lo, out_hi, ranges, in_lo, in_hi)``, with per-sub-layer
    output ranges and the input rows each part needs (the exact VSL
    arithmetic, element for element the scalar :class:`SplitPart`'s)."""
    batch = cuts.shape[0]
    edges = np.concatenate(
        [
            np.zeros((batch, 1), dtype=np.int64),
            cuts,
            np.full((batch, 1), volume.output_height, dtype=np.int64),
        ],
        axis=1,
    )
    out_lo, out_hi = edges[:, :-1], edges[:, 1:]
    layers = list(volume.layers)
    ranges: List[Tuple[np.ndarray, np.ndarray]] = [(out_lo, out_hi)] * len(layers)
    lo, hi = out_lo, out_hi
    for i in range(len(layers) - 1, 0, -1):
        lo, hi = _required_rows_vec(layers[i], lo, hi)
        ranges[i - 1] = (lo, hi)
    in_lo, in_hi = _required_rows_vec(layers[0], ranges[0][0], ranges[0][1])
    return out_lo, out_hi, ranges, in_lo, in_hi


class BatchPlanEvaluator(PlanEvaluator):
    """Drop-in :class:`PlanEvaluator` with a vectorised, memoized batch path.

    ``evaluate`` / ``ips`` keep their signatures (so the splitting MDP, the
    streaming simulator and every baseline planner work unchanged) but route
    through :meth:`evaluate_plans`, gaining the LRU cache; callers with many
    candidate plans should pass them to :meth:`evaluate_plans` directly to
    also gain the array-program scheduling.

    Parameters beyond :class:`PlanEvaluator`'s:

    cache_size:
        Capacity of the full-evaluation LRU (default 4096 plans), and of the
        LRU of compiled plans (:class:`CompiledPlan`) keyed on ``(model, plan structure)``.
    """

    def __init__(
        self,
        devices: Sequence[DeviceInstance],
        network: NetworkModel,
        compute_oracle: Optional[ComputeOracle] = None,
        input_bytes_per_element: float = PlanEvaluator.DEFAULT_INPUT_BYTES_PER_ELEMENT,
        memoize_compute: bool = True,
        cache_size: int = 4096,
    ) -> None:
        super().__init__(
            devices,
            network,
            compute_oracle=compute_oracle,
            input_bytes_per_element=input_bytes_per_element,
            memoize_compute=memoize_compute,
        )
        self._plan_cache = LRUCache(cache_size)
        self._compiled = LRUCache(cache_size)
        self.profiler = NULL_PROFILER
        # Model identity tokens: keyed by object id, with a strong reference
        # kept so ids cannot be recycled while the cache may still hold
        # entries derived from them.
        self._model_tokens: Dict[int, int] = {}
        self._model_refs: Dict[int, ModelSpec] = {}

        n = len(self.devices)
        base = unwrap_oracle(self.oracle)
        self._fast_compute = isinstance(base, GroundTruthComputeOracle)
        self._profile_compute = isinstance(base, ProfileComputeOracle)
        if self._profile_compute:
            # Providers of one type share a profile object; group the device
            # columns so each (layer, profile) lookup is one array call.
            by_profile: Dict[int, List[int]] = {}
            for j, profile in enumerate(base.profiles):
                by_profile.setdefault(id(profile), []).append(j)
            self._profile_groups = [
                (base.profiles[cols[0]], np.array(cols, dtype=np.intp))
                for cols in by_profile.values()
            ]
        oracle_devices = base.devices if self._fast_compute else self.devices
        self._tile = np.array([d.dtype.tile_rows for d in oracle_devices], dtype=np.int64)
        self._peak = np.array([d.dtype.peak_macs_per_s for d in oracle_devices])
        self._membw = np.array([d.dtype.mem_bandwidth_bytes_per_s for d in oracle_devices])
        self._launch = np.array([d.dtype.launch_overhead_ms for d in oracle_devices])
        # Transmission-model constants per endpoint (providers 0..n-1, then
        # the requester at index n — the lane/array layout used throughout).
        links = list(network.provider_links) + [network.requester_link]
        self._io_fixed = np.array([link.model.io_fixed_ms for link in links])
        self._io_bps = np.array([link.model.io_bytes_per_second for link in links])
        self._requester_index = n

    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters of the full-plan LRU cache."""
        return self._plan_cache.info()

    def _model_token(self, model: ModelSpec) -> int:
        key = id(model)
        token = self._model_tokens.get(key)
        if token is None:
            token = len(self._model_tokens)
            self._model_tokens[key] = token
            self._model_refs[key] = model
        return token

    def compiled_plan(self, plan: DistributionPlan) -> CompiledPlan:
        """The :class:`CompiledPlan` of ``plan`` on this evaluator (LRU-cached)."""
        return self.compiled_plans([plan])[0]

    def compiled_plans(self, plans: Sequence[DistributionPlan]) -> List[CompiledPlan]:
        """The compiled plans of ``plans``, which share model and boundaries
        (LRU-cached); the missing ones are built together."""
        keys = [(self._model_token(plan.model), plan_signature(plan)) for plan in plans]
        compiled = [self._compiled.get(key) for key in keys]
        missing = [i for i, c in enumerate(compiled) if c is None]
        if missing:
            group = [plans[i] for i in missing]
            built = map(CompiledPlan, repeat(self), group, _compile_group(self, group))
            for i, c in zip(missing, built):
                self._compiled.put(keys[i], c)
                compiled[i] = c
        return compiled

    # ------------------------------------------------------------------ #
    def evaluate(self, plan: DistributionPlan, t_seconds: float = 0.0) -> EvaluationResult:
        """Single-plan evaluation through the cached batch path."""
        return self.evaluate_plans([plan], t_seconds)[0]

    def evaluate_plans(
        self,
        plans: Sequence[DistributionPlan],
        t_seconds: float = 0.0,
        rates: Optional[Tuple[float, ...]] = None,
    ) -> List[EvaluationResult]:
        """Evaluate a batch of plans, vectorising across plans per group.

        Plans may mix models and partition schemes: the batch is grouped by
        (model, boundaries) and each group is scheduled as one array program.
        Results come back in input order.  Cached results are reused and new
        results are cached.  ``rates`` is
        ``network_state_signature(self.network, t_seconds)`` when the caller
        has already sampled it (the results are identical either way).
        """
        prof = self.profiler
        if not prof.enabled:
            return self._evaluate_plans_impl(plans, t_seconds, rates)
        hits_before = self._plan_cache.hits
        start = perf_counter()
        try:
            return self._evaluate_plans_impl(plans, t_seconds, rates)
        finally:
            prof.add("batch.evaluate_plans", perf_counter() - start)
            prof.count("batch.plans", len(plans))
            prof.count("batch.plan_cache_hits", self._plan_cache.hits - hits_before)

    def _evaluate_plans_impl(
        self,
        plans: Sequence[DistributionPlan],
        t_seconds: float,
        rates: Optional[Tuple[float, ...]],
    ) -> List[EvaluationResult]:
        n = len(self.devices)
        for plan in plans:
            if plan.num_devices != n:
                raise ValueError(
                    f"plan covers {plan.num_devices} devices, evaluator has {n}"
                )
        if not plans:
            return []
        net_sig = network_state_signature(self.network, t_seconds) if rates is None else rates
        results: List[Optional[EvaluationResult]] = [None] * len(plans)
        keys: List[Tuple] = []
        groups: Dict[Tuple, List[int]] = {}
        pending: Dict[Tuple, int] = {}
        # Results computed this call, kept locally so duplicates within the
        # batch resolve even if the LRU evicts early entries mid-call.
        computed: Dict[Tuple, EvaluationResult] = {}
        for i, plan in enumerate(plans):
            key = (self._model_token(plan.model), plan_signature(plan), net_sig)
            keys.append(key)
            cached = self._plan_cache.get(key)
            if cached is not None:
                results[i] = cached
            elif key in pending:
                # Duplicate within this batch: evaluate once, share the result.
                pass
            else:
                pending[key] = i
                group_key = (id(plan.model), tuple(plan.boundaries))
                groups.setdefault(group_key, []).append(i)
        for indices in groups.values():
            fresh = self._evaluate_group([plans[i] for i in indices], t_seconds, net_sig)
            for i, result in zip(indices, fresh):
                self._plan_cache.put(keys[i], result)
                computed[keys[i]] = result
                results[i] = result
        out: List[EvaluationResult] = []
        for i, plan in enumerate(plans):
            result = results[i]
            if result is None:  # duplicate of an entry computed above
                result = computed[keys[i]]
            if result.method != plan.method:
                result = replace(result, method=plan.method)
            out.append(result)
        return out

    # ------------------------------------------------------------------ #
    # the vectorised engine
    # ------------------------------------------------------------------ #
    def _evaluate_group(
        self,
        plans: Sequence[DistributionPlan],
        t_seconds: float,
        net_sig: Tuple[float, ...],
    ) -> List[EvaluationResult]:
        """Schedule a group of plans sharing (model, boundaries) as arrays.

        The sweep (see :class:`BatchVolumeScheduler`) mirrors
        :meth:`PlanEvaluator.process_volume` / :meth:`PlanEvaluator.finalize`
        exactly: transfers are applied in the canonical (destination
        ascending, source ascending) order the scalar dict iteration
        produces, lane reservations use the same three-operand ``max``, and
        per-part latencies use the same float expression tree — so every
        element of every output array is the very float the scalar evaluator
        would produce.  ``net_sig`` is the rate vector already sampled at
        ``t_seconds``.
        """
        model = plans[0].model
        volumes = plans[0].volumes
        batch = len(plans)
        n = len(self.devices)
        if _walks_group(n, len(volumes), batch):
            # Array scheduling only pays off across enough plans; a smaller
            # group walks each plan's compiled plan at the sampled rates
            # (bit-identical to the scalar walk), whose build populated the
            # per-part memo.
            return [
                compiled.run(
                    ScheduleState(lanes=LaneSet(), data_ready_ms={}, prev_parts=None),
                    net_sig, plan.method,
                )
                for compiled, plan in zip(self.compiled_plans(plans), plans)
            ]
        prof = self.profiler
        sweep_start = perf_counter() if prof.enabled else 0.0
        scheduler = BatchVolumeScheduler(self, model, volumes, batch, t_seconds)
        for l in range(len(volumes)):
            cuts = np.array(
                [plan.decisions[l].cuts for plan in plans], dtype=np.int64
            ).reshape(batch, n - 1)
            scheduler.process_volume(cuts, plans=plans)
        heads = (
            np.array([plan.head_device for plan in plans], dtype=np.int64)
            if model.head_layers
            else None
        )
        out = scheduler.finalize(heads, [plan.method for plan in plans])
        if prof.enabled:
            prof.add("batch.group_sweep", perf_counter() - sweep_start)
            prof.count("batch.group_plans", len(plans))
        return out

    @property
    def supports_vectorized_stepping(self) -> bool:
        """Whether :class:`BatchVolumeScheduler` can step without plans.

        The ground-truth and profile compute paths evaluate per-part
        latencies directly from ``(batch, devices)`` row-count arrays; a
        custom oracle only exposes the per-part scalar API, which needs
        concrete plan assignments and therefore cannot serve the incremental
        (decisions-arrive-step-by-step) MDP path.
        """
        return self._fast_compute or self._profile_compute

    # ------------------------------------------------------------------ #
    def _part_durations(
        self,
        plans: Optional[Sequence[DistributionPlan]],
        volume_index: int,
        volume: LayerVolume,
        ranges: Sequence[Tuple[np.ndarray, np.ndarray]],
        nonempty: np.ndarray,
    ) -> np.ndarray:
        """Per-(plan, device) compute latency of one volume's split parts.

        ``plans`` may be ``None`` on the incremental MDP path (episode
        batches step before any plan object exists); only the custom-oracle
        fallback needs them — see :attr:`supports_vectorized_stepping`.
        """
        batch = nonempty.shape[0]
        n = len(self.devices)
        if self._fast_compute:
            total = np.zeros((batch, n))
            for layer, (lo, hi) in zip(volume.layers, ranges):
                req_rows = hi - lo
                rows = np.minimum(req_rows, layer.out_h)
                quantized = ((rows + self._tile - 1) // self._tile) * self._tile
                q_rows = np.minimum(quantized, np.maximum(layer.out_h, rows))
                macs_per_row = layer.macs / layer.out_h
                effective_macs = macs_per_row * q_rows
                in_hi = np.minimum(
                    (rows - 1) * layer.stride - layer.padding + layer.kernel, layer.in_h
                )
                input_bytes = in_hi * (layer.in_w * layer.in_c * FP16_BYTES)
                output_bytes = rows * (layer.out_w * layer.out_c * FP16_BYTES)
                touched_bytes = input_bytes + output_bytes + layer.weight_bytes
                compute_ms = effective_macs / self._peak * 1000.0
                memory_ms = touched_bytes / self._membw * 1000.0
                latency = self._launch + np.maximum(compute_ms, memory_ms)
                total = total + np.where(req_rows > 0, latency, 0.0)
        elif self._profile_compute:
            # Profiled-latency sweep: per (layer, shared profile) one array
            # lookup over every (plan, device) row count.  The profile batch
            # lookups are element-wise identical to the scalar ones and zero
            # where rows <= 0, and the accumulation visits layers in the same
            # order as ProfileComputeOracle.volume_latency_ms, so each total
            # is the very float the scalar oracle would return.
            total = np.zeros((batch, n))
            for layer, (lo, hi) in zip(volume.layers, ranges):
                rows = hi - lo
                for profile, cols in self._profile_groups:
                    sub = rows[:, cols]
                    if not (sub > 0).any():
                        # The scalar path never queries a profile for a layer
                        # none of its devices compute — a partial profile
                        # (layer absent) must not raise here either.
                        continue
                    total[:, cols] += profile.latency_ms_batch(layer.name, sub)
        else:
            if plans is None:
                raise RuntimeError(
                    "vectorised stepping requires a ground-truth or profile "
                    "compute oracle (see supports_vectorized_stepping)"
                )
            durations = np.zeros((batch, n))
            for b, plan in enumerate(plans):
                assignment = plan.assignment(volume_index)
                for j, part in enumerate(assignment.parts):
                    if not part.is_empty:
                        durations[b, j] = self.oracle.part_latency_ms(
                            j, assignment.volume, part
                        )
            return durations

        if isinstance(self.oracle, MemoizedComputeOracle):
            # Pre-pay the stepping path: the splitting MDP replaying any of
            # these plans volume-by-volume will find its per-part latencies
            # already cached (keys are structural, so the MDP's equal-valued
            # volume objects hit these entries).
            out_lo, out_hi = ranges[-1]
            items = {}
            bs, js = np.nonzero(nonempty)
            for b, j, lo, hi, value in zip(
                bs, js, out_lo[bs, js], out_hi[bs, js], total[bs, js]
            ):
                items[(int(j), (int(lo), int(hi)))] = value
            self.oracle.seed_parts(volume, items)
        return total


def _compile_group(evaluator: BatchPlanEvaluator, plans: Sequence[DistributionPlan]) -> List[list]:
    """What :class:`CompiledPlan` needs of each of ``plans`` (which share
    model and boundaries), computed for the group together: per volume, the
    non-empty flags, part durations, local-overlap flags and ``(source,
    destination, bytes)`` transfers of each plan.

    Per volume, one call of the array sweep's
    :meth:`BatchPlanEvaluator._part_durations` (which also seeds the
    per-part memo) gives every part duration of the group, and one array
    program every redistribution: the entries of
    :func:`~repro.runtime.plan.redistribution_bytes` in its order
    (destination, then source ascending), in memory linear in plans and
    devices.
    """
    n = len(evaluator.devices)
    per_plan: List[list] = [[] for _ in plans]
    prev = None  # the previous volume's (out_lo, out_hi, non-empty)
    for index, volume in enumerate(plans[0].volumes):
        cuts = np.array([plan.decisions[index].cuts for plan in plans], dtype=np.int64)
        out_lo, out_hi, ranges, in_lo, in_hi = _volume_rows(volume, cuts.reshape(len(plans), n - 1))
        held = out_hi > out_lo
        durations = evaluator._part_durations(plans, index, volume, ranges, held)
        if prev is None:
            # The first volume's scatter: the dict PlanEvaluator builds,
            # zero-byte entries included.
            elements = volume.first.in_w * volume.first.in_c
            rows = np.maximum(in_hi - in_lo, 0)
            scatter = np.rint(rows * elements * evaluator.input_bytes_per_element)
            plan_of, dsts = np.nonzero(held)
            transfers = zip(
                repeat(REQUESTER), dsts.tolist(),
                scatter[plan_of, dsts].astype(np.int64).tolist(),
            )
            local = np.zeros_like(held)
        else:
            prev_lo, prev_hi, prev_held = prev
            local = prev_held & (np.minimum(in_hi, prev_hi) > np.maximum(in_lo, prev_lo))
            # Parts hold contiguous rows in device order, so the sources a part
            # needs rows from are one run of devices, found by binary search;
            # shifting each plan's rows past the last plan's keeps one sorted axis.
            shift = np.arange(len(plans))[:, None] * (int(prev_hi.max()) + int(in_hi.max()) + 1)
            first = np.searchsorted((prev_hi + shift).ravel(), (in_lo + shift).ravel(), "right")
            stop = np.searchsorted((prev_lo + shift).ravel(), (in_hi + shift).ravel(), "left")
            runs = np.where(held.ravel(), np.maximum(stop - first, 0), 0)
            # Flat (plan, destination) and (plan, source) indices of each candidate.
            need = np.repeat(np.arange(runs.size), runs)
            have = first[need] + np.arange(need.size) - np.repeat(np.cumsum(runs) - runs, runs)
            rows = np.minimum(in_hi.ravel()[need], prev_hi.ravel()[have]) - np.maximum(
                in_lo.ravel()[need], prev_lo.ravel()[have]
            )
            move = (rows > 0) & prev_held.ravel()[have] & (need != have)
            plan_of, dsts, srcs = need[move] // n, need[move] % n, have[move] % n
            row_bytes = volume.first.in_w * volume.first.in_c * FP16_BYTES
            transfers = zip(srcs.tolist(), dsts.tolist(), (rows[move] * row_bytes).tolist())
        counts = np.bincount(plan_of, minlength=len(plans)).tolist()
        for b, count in enumerate(counts):
            per_plan[b].append((
                held[b].tolist(), durations[b].tolist(), local[b].tolist(),
                list(islice(transfers, count)),
            ))
        prev = (out_lo, out_hi, held)
    return per_plan


#: One transfer of a compiled plan: ``(source endpoint, bytes, I/O overhead ms)``.
Transfer = Tuple[int, int, float]


class CompiledPlan:
    """One plan's evaluation with everything but the link rates precomputed.

    :meth:`PlanEvaluator.process_volume` rebuilds every boundary's transfer
    dict, rescans it once per destination and samples two link traces per
    transfer, on every call — yet all of that depends on the plan alone,
    except the link rates, of which there are only ``devices + 1`` at any
    instant.  A compiled plan holds, per volume and destination device, the
    incoming transfers in the scalar dict order (destination ascending, then
    source ascending) with their byte counts and source-link I/O overheads
    ``io_fixed + bytes / io_bps * 1000``, the local-overlap flag and the
    oracle's part duration; and for the last stage the gather, head-compute
    and result-return records.  The plans of one walked group are compiled
    together (:func:`_compile_group`), with the array sweep's own part
    durations.

    :meth:`run` walks those records over a
    :class:`~repro.runtime.evaluator.ScheduleState`'s lanes at one sampled
    rate vector.  Each transfer lasts ``io + bytes / min(bps[src], bps[dst])
    * 1000`` with ``bps = mbps * MBPS / 8``: the conversion is monotone, so
    it commutes with ``min`` and every duration is the very float of
    :meth:`NetworkModel.transfer_latency_ms`.  Lane bookings, ``max``
    operands and accumulation orders are the scalar walk's, so the
    :class:`EvaluationResult` is bit-identical to
    :meth:`PlanEvaluator.evaluate` — the parity the property test
    ``tests/runtime/test_compiled_plan.py`` asserts field by field.
    """

    __slots__ = (
        "num_devices",
        "volumes",
        "recv_bytes",
        "compute_ms",
        "compute_total_ms",
        "head_device",
        "gather",
        "head_compute_ms",
        "result",
        "returns",
        "senders",
        "receivers",
        "computers",
    )

    def __init__(
        self, evaluator: BatchPlanEvaluator, plan: DistributionPlan, volumes=None
    ) -> None:
        """``volumes`` is ``plan``'s entry of :func:`_compile_group`, when the
        plan is compiled with others."""
        if volumes is None:
            (volumes,) = _compile_group(evaluator, [plan])
        n = len(evaluator.devices)
        oracle = evaluator.oracle
        self.num_devices = n
        #: Endpoints whose send / receive / compute lane the walk books.
        senders, receivers, computers = set(), set(), set()
        # Source-link transmission constants (the requester's last, at -1).
        io_fixed, io_bps = evaluator._io_fixed.tolist(), evaluator._io_bps.tolist()

        def transfer(src: int, dst: int, n_bytes: int) -> Transfer:
            if n_bytes > 0:
                senders.add(src)
                receivers.add(dst)
            return (src, n_bytes, io_fixed[src] + n_bytes / io_bps[src] * 1000.0)

        #: Per volume, per device: ``None`` for an empty part, else
        #: ``(incoming transfers, holds overlapping rows locally, duration)``.
        self.volumes: List[List[Optional[Tuple[Tuple[Transfer, ...], bool, float]]]] = []
        self.recv_bytes: List[np.ndarray] = []
        self.compute_ms: List[np.ndarray] = []
        compute_total = np.zeros(n)
        for held, durations, local, moves in volumes:
            incoming: List[List[Transfer]] = [[] for _ in range(n)]
            for src, dst, n_bytes in moves:
                incoming[dst].append(transfer(src, dst, n_bytes))
            records: List[Optional[Tuple[Tuple[Transfer, ...], bool, float]]] = []
            recv_bytes = np.zeros(n)
            compute = np.zeros(n)
            for j in range(n):
                if not held[j]:
                    records.append(None)
                    continue
                for _, n_bytes, _ in incoming[j]:
                    recv_bytes[j] += n_bytes
                duration = durations[j]
                compute[j] = duration
                compute_total[j] += duration
                computers.add(j)
                records.append((tuple(incoming[j]), local[j], duration))
            self.volumes.append(records)
            self.recv_bytes.append(recv_bytes)
            self.compute_ms.append(compute)

        last = [p for p in plan.assignment(-1).parts if not p.is_empty]
        head_layers = plan.model.head_layers
        self.head_device: Optional[int] = None
        self.gather: Tuple[Transfer, ...] = ()
        self.head_compute_ms = 0.0
        self.result: Optional[Transfer] = None
        self.returns: Tuple[Transfer, ...] = ()
        if head_layers:
            head = plan.head_device
            self.head_device = head
            self.gather = tuple(
                transfer(p.device_index, head, p.output_bytes)
                for p in last
                if p.device_index != head
            )
            self.head_compute_ms = oracle.head_latency_ms(head, head_layers)
            compute_total[head] += self.head_compute_ms
            computers.add(head)
            self.result = transfer(head, REQUESTER, head_layers[-1].output_bytes)
        else:
            self.returns = tuple(transfer(p.device_index, REQUESTER, p.output_bytes) for p in last)
        self.compute_total_ms = compute_total
        self.senders = tuple(sorted(senders))
        self.receivers = tuple(sorted(receivers))
        self.computers = tuple(sorted(computers))

    def run(
        self,
        state: ScheduleState,
        rates_mbps: Sequence[float],
        method: str,
        record_wait: Optional[Callable[[int, str, float], None]] = None,
    ) -> EvaluationResult:
        """Schedule one inference on ``state``'s lanes at the given link rates.

        ``rates_mbps`` is :func:`network_state_signature` at the evaluation
        instant: provider throughputs, then the requester's (so index
        ``REQUESTER == -1`` reads it).  ``record_wait(endpoint, role,
        wait_ms)`` is called whenever a job's start is held back by its
        lane's prior occupancy, with ``wait_ms = free_at - earliest``; the
        contended walk records lane waits through it.
        """
        n = self.num_devices
        lanes = state.lanes
        bps = [mbps * MBPS / 8.0 for mbps in rates_mbps]
        send_lanes = {e: lanes.lane(e, "send") for e in self.senders}
        recv_lanes = {e: lanes.lane(e, "recv") for e in self.receivers}
        compute_lanes = {j: lanes.lane(j, "compute") for j in self.computers}

        def send(src: int, dst: int, n_bytes: int, io: float, earliest: float) -> float:
            # PlanEvaluator._transfer, with the air time from the rate vector.
            if n_bytes <= 0:
                return earliest
            rate = min(bps[src], bps[dst])
            if rate <= 0:
                raise ValueError(
                    f"throughput must be positive, got {min(rates_mbps[src], rates_mbps[dst])}"
                )
            duration = io + n_bytes / rate * 1000.0
            send_lane = send_lanes[src]
            recv_lane = recv_lanes[dst]
            if record_wait is not None:
                if send_lane.free_at > earliest:
                    record_wait(src, "send", send_lane.free_at - earliest)
                if recv_lane.free_at > earliest:
                    record_wait(dst, "recv", recv_lane.free_at - earliest)
            start = max(earliest, send_lane.free_at, recv_lane.free_at)
            end = start + duration
            send_lane.free_at = end
            send_lane.busy_ms += duration
            send_lane.jobs += 1
            recv_lane.free_at = end
            recv_lane.busy_ms += duration
            recv_lane.jobs += 1
            return end

        def compute(j: int, earliest: float, duration: float) -> float:
            lane = compute_lanes[j]
            if record_wait is not None and lane.free_at > earliest:
                record_wait(j, "compute", lane.free_at - earliest)
            return lane.schedule(earliest, duration)[1]

        data_ready = state.data_ready_ms
        prev_finish = [0.0] * n
        for index, records in enumerate(self.volumes):
            ready = [0.0] * n
            finish = [0.0] * n
            for j, record in enumerate(records):
                if record is None:
                    finish[j] = ready[j] = prev_finish[j]
                    continue
                transfers, local, duration = record
                arrival = 0.0
                for src, n_bytes, io in transfers:
                    source_ready = 0.0 if src == REQUESTER else data_ready.get(src, 0.0)
                    arrival = max(arrival, send(src, j, n_bytes, io, source_ready))
                ready[j] = max(arrival, data_ready.get(j, 0.0) if local else 0.0)
                finish[j] = compute(j, ready[j], duration)
            for j, record in enumerate(records):
                data_ready[j] = 0.0 if record is None else finish[j]
            prev_finish = finish
            ready_ms = np.array(ready)
            state.volume_timings.append(
                VolumeTiming(
                    volume_index=index,
                    ready_ms=ready_ms,
                    finish_ms=np.array(finish),
                    compute_ms=self.compute_ms[index].copy(),
                    recv_bytes=self.recv_bytes[index].copy(),
                )
            )
            if index == 0:
                state.scatter_end_ms = float(ready_ms.max())

        head = self.head_device
        if head is not None:
            gather_ready = data_ready.get(head, 0.0)
            for src, n_bytes, io in self.gather:
                gather_ready = max(
                    gather_ready, send(src, head, n_bytes, io, data_ready.get(src, 0.0))
                )
            head_end = compute(head, gather_ready, self.head_compute_ms)
            _, n_bytes, io = self.result
            end_to_end = send(head, REQUESTER, n_bytes, io, head_end)
        else:
            end_to_end = 0.0
            for src, n_bytes, io in self.returns:
                end_to_end = max(
                    end_to_end, send(src, REQUESTER, n_bytes, io, data_ready.get(src, 0.0))
                )
        return EvaluationResult(
            end_to_end_ms=float(end_to_end),
            volume_timings=state.volume_timings,
            per_device_compute_ms=self.compute_total_ms.copy(),
            per_device_send_ms=np.array([lanes.busy_ms(j, "send") for j in range(n)]),
            per_device_recv_ms=np.array([lanes.busy_ms(j, "recv") for j in range(n)]),
            scatter_end_ms=state.scatter_end_ms,
            head_device=head,
            head_compute_ms=self.head_compute_ms,
            method=method,
        )


class BatchVolumeScheduler:
    """Incremental ``(batch, devices)`` array scheduling of one inference each.

    This is the vectorised counterpart of
    :class:`~repro.runtime.evaluator.ScheduleState` plus
    :meth:`~repro.runtime.evaluator.PlanEvaluator.process_volume` /
    :meth:`~repro.runtime.evaluator.PlanEvaluator.finalize`: it carries the
    send/recv/compute lane state of ``batch`` independent inferences and
    advances them all one layer-volume at a time.  Two consumers drive it:

    * :meth:`BatchPlanEvaluator._evaluate_group` feeds it the complete
      decision set of a plan group, one volume per call; and
    * the episode-batched splitting MDP
      (:class:`~repro.core.mdp.BatchSplitMDP`) feeds it one *step* of ``E``
      concurrent OSDS episodes at a time, reading back the accumulated
      latencies that form the DRL state of Eq. 7 between calls.

    Both uses execute the identical float-operation sequence as the scalar
    evaluator (same operands, same order, same ``max``/``+`` structure), so
    the results are bit-identical to scalar evaluation — the invariant the
    whole batch subsystem is built on.
    """

    def __init__(
        self,
        evaluator: BatchPlanEvaluator,
        model: ModelSpec,
        volumes: Sequence[LayerVolume],
        batch: int,
        t_seconds: float = 0.0,
    ) -> None:
        self.evaluator = evaluator
        self.model = model
        self.volumes = list(volumes)
        self.batch = int(batch)
        self.t_seconds = float(t_seconds)
        n = len(evaluator.devices)
        self.n = n
        self.req = evaluator._requester_index

        thr = np.array(network_state_signature(evaluator.network, t_seconds))
        if np.any(thr <= 0):
            raise ValueError("all link throughputs must be positive")
        # Achievable pairwise rate (bytes/s): min of the two endpoint links,
        # converted exactly as utils.units.bytes_per_second does.
        self.air_bps = np.minimum(thr[:, None], thr[None, :]) * MBPS / 8.0

        batch = self.batch
        self.send_free = np.zeros((batch, n + 1))
        self.recv_free = np.zeros((batch, n + 1))
        self.send_busy = np.zeros((batch, n + 1))
        self.recv_busy = np.zeros((batch, n + 1))
        self.comp_free = np.zeros((batch, n))
        self.comp_total = np.zeros((batch, n))
        self.data_ready = np.zeros((batch, n))
        self.prev_finish = np.zeros((batch, n))
        self.prev_out_lo: Optional[np.ndarray] = None
        self.prev_out_hi: Optional[np.ndarray] = None
        self.prev_nonempty: Optional[np.ndarray] = None
        self.scatter_end = np.zeros(batch)
        self.vol_records: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.volume_index = 0

    # ------------------------------------------------------------------ #
    @property
    def num_volumes(self) -> int:
        return len(self.volumes)

    @property
    def done(self) -> bool:
        return self.volume_index >= len(self.volumes)

    def _transfer(
        self,
        src: int,
        dst,
        nbytes: np.ndarray,
        earliest: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Masked lane-scheduled transfer; returns per-plan end times.

        ``dst`` is either a column index or a per-plan index array (the
        head-gather case).  Rows outside ``mask`` leave all lanes
        untouched and report ``earliest`` as their end time, exactly like
        the scalar ``_transfer`` skip path.
        """
        batch = self.batch
        send_free, recv_free = self.send_free, self.recv_free
        send_busy, recv_busy = self.send_busy, self.recv_busy
        nb = nbytes.astype(np.float64)
        duration = (
            self.evaluator._io_fixed[src] + nb / self.evaluator._io_bps[src] * 1000.0
        ) + nb / (
            self.air_bps[src, dst] if np.isscalar(dst) else self.air_bps[src][dst]
        ) * 1000.0
        if np.isscalar(dst):
            dst_free = recv_free[:, dst]
        else:
            dst_free = recv_free[np.arange(batch), dst]
        start = np.maximum(np.maximum(earliest, send_free[:, src]), dst_free)
        end = start + duration
        send_free[:, src] = np.where(mask, end, send_free[:, src])
        send_busy[:, src] = np.where(mask, send_busy[:, src] + duration, send_busy[:, src])
        new_dst_free = np.where(mask, end, dst_free)
        new_dst_busy = np.where(mask, duration, 0.0)
        if np.isscalar(dst):
            recv_free[:, dst] = new_dst_free
            recv_busy[:, dst] += new_dst_busy
        else:
            rows = np.arange(batch)
            recv_free[rows, dst] = new_dst_free
            recv_busy[rows, dst] += new_dst_busy
        return np.where(mask, end, earliest)

    # ------------------------------------------------------------------ #
    def process_volume(
        self,
        cuts: np.ndarray,
        plans: Optional[Sequence[DistributionPlan]] = None,
    ) -> np.ndarray:
        """Advance every inference by one layer-volume.

        ``cuts`` is the ``(batch, devices - 1)`` integer cut-point array of
        this volume's split decisions.  Returns the ``(batch, devices)``
        accumulated-latency array ``T^l`` (empty parts carry the previous
        volume's value, exactly like the scalar evaluator) — the quantity
        the splitting MDP observes.  ``plans`` is only consulted by the
        custom-oracle fallback of
        :meth:`BatchPlanEvaluator._part_durations`.
        """
        if self.done:
            raise RuntimeError("all volumes already processed; call finalize()")
        evaluator = self.evaluator
        batch, n = self.batch, self.n
        l = self.volume_index
        volume = self.volumes[l]
        data_ready = self.data_ready
        prev_out_lo, prev_out_hi = self.prev_out_lo, self.prev_out_hi
        prev_nonempty = self.prev_nonempty

        cuts = np.asarray(cuts, dtype=np.int64).reshape(batch, n - 1)
        out_lo, out_hi, ranges, in_lo, in_hi = _volume_rows(volume, cuts)
        nonempty = out_hi > out_lo

        # ---- transfers, in the scalar evaluator's canonical order ---- #
        arrival = np.zeros((batch, n))
        recv_bytes = np.zeros((batch, n))
        if l == 0:
            in_elements = volume.first.in_w * volume.first.in_c
            scatter = np.rint(
                np.maximum(in_hi - in_lo, 0) * in_elements * evaluator.input_bytes_per_element
            ).astype(np.int64)
            for dst in range(n):
                mask = nonempty[:, dst] & (scatter[:, dst] > 0)
                if not mask.any():
                    continue
                end = self._transfer(self.req, dst, scatter[:, dst], np.zeros(batch), mask)
                arrival[:, dst] = np.where(
                    mask, np.maximum(arrival[:, dst], end), arrival[:, dst]
                )
                recv_bytes[:, dst] += np.where(mask, scatter[:, dst], 0)
        else:
            row_bytes = volume.first.in_w * volume.first.in_c * FP16_BYTES
            for dst in range(n):
                need_mask = nonempty[:, dst] & (in_hi[:, dst] > in_lo[:, dst])
                if not need_mask.any():
                    continue
                for src in range(n):
                    if src == dst:
                        continue
                    overlap = np.minimum(in_hi[:, dst], prev_out_hi[:, src]) - np.maximum(
                        in_lo[:, dst], prev_out_lo[:, src]
                    )
                    mask = need_mask & prev_nonempty[:, src] & (overlap > 0)
                    if not mask.any():
                        continue
                    nbytes = overlap * row_bytes
                    end = self._transfer(src, dst, nbytes, data_ready[:, src], mask)
                    arrival[:, dst] = np.where(
                        mask, np.maximum(arrival[:, dst], end), arrival[:, dst]
                    )
                    recv_bytes[:, dst] += np.where(mask, nbytes, 0)

        # Rows already held locally from the previous volume.
        if l == 0:
            local_ready = np.zeros((batch, n))
        else:
            have_overlap = (
                np.minimum(in_hi, prev_out_hi) > np.maximum(in_lo, prev_out_lo)
            ) & prev_nonempty
            local_ready = np.where(have_overlap, data_ready, 0.0)

        # ---- compute lanes -------------------------------------------- #
        durations = evaluator._part_durations(plans, l, volume, ranges, nonempty)
        ready = np.where(nonempty, np.maximum(arrival, local_ready), self.prev_finish)
        start = np.maximum(ready, self.comp_free)
        finish = np.where(nonempty, start + durations, self.prev_finish)
        self.comp_free = np.where(nonempty, finish, self.comp_free)
        active_durations = np.where(nonempty, durations, 0.0)
        self.comp_total = self.comp_total + active_durations

        self.data_ready = np.where(nonempty, finish, 0.0)
        self.prev_out_lo, self.prev_out_hi = out_lo, out_hi
        self.prev_nonempty = nonempty
        self.prev_finish = finish
        self.vol_records.append((ready, finish, active_durations, recv_bytes))
        if l == 0:
            self.scatter_end = ready.max(axis=1)
        self.volume_index += 1
        return finish

    # ------------------------------------------------------------------ #
    def finalize(
        self,
        head_devices: Optional[np.ndarray],
        methods: Sequence[str],
    ) -> List[EvaluationResult]:
        """Schedule gather / head / result return; assemble per-plan results.

        ``head_devices`` is the per-plan head-provider index array when the
        model has a dense head, ``None`` otherwise (each provider then
        returns its own rows to the requester).
        """
        if not self.done:
            raise RuntimeError(
                f"finalize() called after {self.volume_index} of {len(self.volumes)} volumes"
            )
        evaluator = self.evaluator
        batch, n, req = self.batch, self.n, self.req
        volumes = self.volumes
        data_ready = self.data_ready
        prev_nonempty = self.prev_nonempty
        send_free, recv_free = self.send_free, self.recv_free
        send_busy, recv_busy = self.send_busy, self.recv_busy
        comp_free, comp_total = self.comp_free, self.comp_total

        head_layers = self.model.head_layers
        last_lo, last_hi = self.prev_out_lo, self.prev_out_hi
        out_elements = volumes[-1].last.out_w * volumes[-1].last.out_c
        out_bytes_last = (last_hi - last_lo) * out_elements * FP16_BYTES
        rows_idx = np.arange(batch)
        if head_layers:
            head = np.asarray(head_devices, dtype=np.int64)
            head_lat = np.array(
                [evaluator.oracle.head_latency_ms(j, head_layers) for j in range(n)]
            )
            gather_ready = data_ready[rows_idx, head]
            for src in range(n):
                mask = prev_nonempty[:, src] & (head != src)
                if not mask.any():
                    continue
                end = self._transfer(src, head, out_bytes_last[:, src], data_ready[:, src], mask)
                gather_ready = np.where(mask, np.maximum(gather_ready, end), gather_ready)
            head_compute = head_lat[head]
            head_start = np.maximum(gather_ready, comp_free[rows_idx, head])
            head_end = head_start + head_compute
            comp_free[rows_idx, head] = head_end
            comp_total[rows_idx, head] += head_compute
            # The final result return always happens (result_bytes > 0).
            result_bytes = np.full(batch, head_layers[-1].output_bytes, dtype=np.int64)
            nb = result_bytes.astype(np.float64)
            duration = (
                evaluator._io_fixed[head] + nb / evaluator._io_bps[head] * 1000.0
            ) + nb / self.air_bps[head, req] * 1000.0
            start = np.maximum(
                np.maximum(head_end, send_free[rows_idx, head]), recv_free[:, req]
            )
            end_to_end = start + duration
            send_free[rows_idx, head] = end_to_end
            send_busy[rows_idx, head] += duration
            recv_free[:, req] = end_to_end
            recv_busy[:, req] += duration
            out_heads: List[Optional[int]] = [int(h) for h in head]
        else:
            head_compute = np.zeros(batch)
            end_to_end = np.zeros(batch)
            for src in range(n):
                mask = prev_nonempty[:, src] & (out_bytes_last[:, src] > 0)
                if not mask.any():
                    continue
                end = self._transfer(src, req, out_bytes_last[:, src], data_ready[:, src], mask)
                end_to_end = np.where(mask, np.maximum(end_to_end, end), end_to_end)
            out_heads = [None] * batch

        # ---- per-plan result assembly ------------------------------------- #
        results: List[EvaluationResult] = []
        for b in range(batch):
            timings = [
                VolumeTiming(
                    volume_index=l,
                    ready_ms=ready[b].copy(),
                    finish_ms=finish[b].copy(),
                    compute_ms=compute[b].copy(),
                    recv_bytes=recv[b].copy(),
                )
                for l, (ready, finish, compute, recv) in enumerate(self.vol_records)
            ]
            results.append(
                EvaluationResult(
                    end_to_end_ms=float(end_to_end[b]),
                    volume_timings=timings,
                    per_device_compute_ms=comp_total[b].copy(),
                    per_device_send_ms=send_busy[b, :n].copy(),
                    per_device_recv_ms=recv_busy[b, :n].copy(),
                    scatter_end_ms=float(self.scatter_end[b]),
                    head_device=out_heads[b],
                    head_compute_ms=float(head_compute[b]),
                    method=methods[b],
                )
            )
        return results


__all__ = [
    "BatchPlanEvaluator",
    "BatchVolumeScheduler",
    "CompiledPlan",
    "network_state_signature",
    "plan_signature",
]
