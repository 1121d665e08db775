"""Regeneration of every evaluation artefact of the paper (Figs. 4-15).

Each ``figureN`` function reproduces the data behind the corresponding paper
figure and returns a plain dictionary of rows/series (no plotting — the
figure benchmarks ``benchmarks/test_bench_fig*.py`` print the values, and
each one's docstring states the paper's expected shape they are held to).
All heavy computation is delegated to an
:class:`~repro.experiments.harness.ExperimentHarness`, whose configuration
controls the fidelity/runtime trade-off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

import numpy as np

from repro.baselines import AOFLPlanner, CoEdgePlanner
from repro.core.distredge import DistrEdge
from repro.core.online import OnlineDistrEdgeController, PeriodicReplanController
from repro.devices.latency_model import ComputeLatencyModel
from repro.devices.specs import get_device_type
from repro.experiments.harness import ALL_METHODS, ExperimentHarness
from repro.experiments.scenarios import Scenario, ScenarioCatalog
from repro.network.bandwidth import DynamicTrace, WiFiTrace
from repro.nn import model_zoo
from repro.runtime.streaming import StreamingSimulator
from repro.serving.traffic import PoissonArrivals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.dispatch import ClusterPolicy

#: The seven extra models of Figs. 10-11 (VGG-16 is covered by Figs. 5-9).
EXTRA_MODELS: Sequence[str] = (
    "resnet50",
    "inception_v3",
    "yolov2",
    "ssd_resnet50",
    "ssd_vgg16",
    "openpose",
    "voxelnet",
)


# --------------------------------------------------------------------------- #
# Fig. 4 and Fig. 12: bandwidth traces
# --------------------------------------------------------------------------- #
def figure4(duration_s: float = 3600.0, seed: int = 0) -> Dict[str, dict]:
    """Sampled WiFi throughput traces at 50/100/200/300 Mbps (Fig. 4)."""
    out: Dict[str, dict] = {}
    for mbps in (50, 100, 200, 300):
        trace = WiFiTrace(mbps=mbps, duration_seconds=duration_s, seed=seed + mbps)
        samples = trace.sample(0, duration_s, 60.0)
        out[f"{mbps}Mbps"] = {
            "nominal_mbps": mbps,
            "mean_mbps": float(samples[:, 1].mean()),
            "std_mbps": float(samples[:, 1].std()),
            "min_mbps": float(samples[:, 1].min()),
            "max_mbps": float(samples[:, 1].max()),
        }
    return out


def figure12(duration_s: float = 3600.0, seed: int = 0) -> Dict[str, dict]:
    """Highly dynamic per-device throughput traces (Fig. 12)."""
    out: Dict[str, dict] = {}
    for device in range(4):
        trace = DynamicTrace(duration_seconds=duration_s, seed=seed + device)
        samples = trace.sample(0, duration_s, 60.0)
        out[f"device{device + 1}"] = {
            "mean_mbps": float(samples[:, 1].mean()),
            "std_mbps": float(samples[:, 1].std()),
            "min_mbps": float(samples[:, 1].min()),
            "max_mbps": float(samples[:, 1].max()),
        }
    return out


# --------------------------------------------------------------------------- #
# Fig. 5: effect of alpha in LC-PSS
# --------------------------------------------------------------------------- #
def figure5(
    harness: ExperimentHarness,
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    environments: Optional[Dict[str, Scenario]] = None,
    model_name: str = "vgg16",
) -> Dict[str, Dict[float, float]]:
    """IPS of DistrEdge for different alpha values in four environments.

    Environments default to the paper's four: (a) homogeneous devices at
    200 Mbps, (b) heterogeneous device types (Group DB), (c) heterogeneous
    bandwidths (Group NA on Nano), (d) a large-scale group (LD).
    """
    if environments is None:
        environments = {
            "a-homogeneous": ScenarioCatalog.homogeneous("nano", 200.0),
            "b-hetero-devices": ScenarioCatalog.table1_groups(200.0)["DB"],
            "c-hetero-network": ScenarioCatalog.table2_groups("nano")["NA"],
            "d-large-scale": ScenarioCatalog.table3_groups()["LD"],
        }
    results: Dict[str, Dict[float, float]] = {}
    base_alpha = harness.config.alpha
    for env_name, scenario in environments.items():
        results[env_name] = {}
        for alpha in alphas:
            harness.config.alpha = float(alpha)
            result = harness.run(
                "distredge", scenario, model_name=model_name, use_cache=False
            )
            results[env_name][float(alpha)] = result.ips
        harness.config.alpha = base_alpha
    return results


# --------------------------------------------------------------------------- #
# Fig. 6: effect of |Rr_s| in LC-PSS
# --------------------------------------------------------------------------- #
def figure6(
    harness: ExperimentHarness,
    counts: Sequence[int] = (25, 50, 75, 100, 125, 150),
    repeats: int = 5,
    cases: Optional[Dict[str, Scenario]] = None,
    model_name: str = "vgg16",
) -> Dict[str, Dict[int, dict]]:
    """IPS spread versus the number of random split decisions ``|Rr_s|``.

    For every count the partition search is repeated ``repeats`` times with
    different random-split seeds (the paper uses 50 repetitions), OSDS is run
    on each resulting partition, and the min / mean / max IPS are reported.
    """
    if cases is None:
        cases = {
            "DB-50Mbps": ScenarioCatalog.table1_groups(50.0)["DB"],
            "NA-nano": ScenarioCatalog.table2_groups("nano")["NA"],
        }
    model = harness.model(model_name)
    out: Dict[str, Dict[int, dict]] = {}
    for case_name, scenario in cases.items():
        devices, network = scenario.build(seed=harness.config.seed)
        evaluator = harness.evaluator_for(devices, network)
        out[case_name] = {}
        for count in counts:
            ips_values = []
            for rep in range(repeats):
                config = harness.config.distredge_config(len(devices))
                config.num_random_splits = int(count)
                config.seed = harness.config.seed + 1000 * rep + count
                planner = DistrEdge(config)
                plan = planner.plan(model, devices, network)
                ips_values.append(evaluator.evaluate(plan).ips)
            arr = np.asarray(ips_values)
            out[case_name][int(count)] = {
                "min_ips": float(arr.min()),
                "mean_ips": float(arr.mean()),
                "max_ips": float(arr.max()),
            }
    return out


# --------------------------------------------------------------------------- #
# Fig. 7 / 8 / 9: heterogeneous devices, networks, large scale
# --------------------------------------------------------------------------- #
def figure7(
    harness: ExperimentHarness,
    bandwidths: Sequence[float] = (50.0, 300.0),
    methods: Sequence[str] = ALL_METHODS,
    model_name: str = "vgg16",
) -> Dict[str, Dict[str, float]]:
    """IPS under heterogeneous device groups DA/DB/DC at 50 and 300 Mbps."""
    out: Dict[str, Dict[str, float]] = {}
    for mbps in bandwidths:
        for group, scenario in ScenarioCatalog.table1_groups(mbps).items():
            scenario = scenario.with_bandwidth(mbps, suffix=f"{mbps:g}")
            key = f"{group}-{mbps:g}Mbps"
            out[key] = harness.ips_table(harness.compare(scenario, methods, model_name))
    return out


def figure8(
    harness: ExperimentHarness,
    device_types: Sequence[str] = ("nano", "xavier"),
    methods: Sequence[str] = ALL_METHODS,
    model_name: str = "vgg16",
) -> Dict[str, Dict[str, float]]:
    """IPS under heterogeneous bandwidth groups NA-ND on Nano and Xavier."""
    out: Dict[str, Dict[str, float]] = {}
    for device_type in device_types:
        for group, scenario in ScenarioCatalog.table2_groups(device_type).items():
            key = f"{group}-{device_type}"
            named = Scenario(
                name=key,
                device_specs=scenario.device_specs,
                description=scenario.description,
            )
            out[key] = harness.ips_table(harness.compare(named, methods, model_name))
    return out


def figure9(
    harness: ExperimentHarness,
    methods: Sequence[str] = ALL_METHODS,
    model_name: str = "vgg16",
) -> Dict[str, Dict[str, float]]:
    """IPS with 16 service providers (groups LA-LD of Table III)."""
    out: Dict[str, Dict[str, float]] = {}
    for group, scenario in ScenarioCatalog.table3_groups().items():
        out[group] = harness.ips_table(harness.compare(scenario, methods, model_name))
    return out


# --------------------------------------------------------------------------- #
# Fig. 10 / 11: different CNN models
# --------------------------------------------------------------------------- #
def figure10(
    harness: ExperimentHarness,
    models: Sequence[str] = EXTRA_MODELS,
    methods: Sequence[str] = ALL_METHODS,
) -> Dict[str, Dict[str, float]]:
    """IPS of seven further models on Group DB at 50 Mbps (Fig. 10)."""
    scenario = ScenarioCatalog.table1_groups(50.0)["DB"].with_bandwidth(50.0, suffix="50")
    return {
        model: harness.ips_table(harness.compare(scenario, methods, model))
        for model in models
    }


def figure11(
    harness: ExperimentHarness,
    models: Sequence[str] = EXTRA_MODELS,
    methods: Sequence[str] = ALL_METHODS,
) -> Dict[str, Dict[str, float]]:
    """IPS of seven further models on Group NA with Nano providers (Fig. 11)."""
    scenario = ScenarioCatalog.table2_groups("nano")["NA"]
    named = Scenario("NA-nano", scenario.device_specs, scenario.description)
    return {
        model: harness.ips_table(harness.compare(named, methods, model))
        for model in models
    }


# --------------------------------------------------------------------------- #
# Fig. 13: per-image latency under a highly dynamic network
# --------------------------------------------------------------------------- #
def figure13(
    harness: ExperimentHarness,
    duration_s: float = 600.0,
    extra_gap_ms: float = 1000.0,
    model_name: str = "vgg16",
    seed: int = 0,
) -> Dict[str, dict]:
    """Per-image processing latency of CoEdge, AOFL and DistrEdge online.

    The three methods stream images over the same highly dynamic traces
    (Fig. 12).  CoEdge re-plans before every image (negligible delay), AOFL
    re-plans on significant throughput drift with a long brute-force delay,
    and DistrEdge keeps its actor online and fine-tunes after partition
    updates.  ``extra_gap_ms`` spaces the images out so a fixed simulated
    duration covers the whole trace without streaming tens of thousands of
    images.
    """
    scenario = ScenarioCatalog.dynamic_nano()
    model = harness.model(model_name)
    out: Dict[str, dict] = {}

    def summarise(stream) -> dict:
        lat = stream.per_image_latency_ms
        return {
            "mean_latency_ms": float(lat.mean()),
            "p95_latency_ms": float(np.percentile(lat, 95)),
            "max_latency_ms": float(lat.max()),
            "num_images": int(lat.size),
            "num_replans": len(stream.replan_times_s),
            "series": stream.latency_series(),
        }

    # --- CoEdge: replans every image, negligible planning delay.
    devices, network = scenario.build(seed=seed, trace_kind="dynamic")
    evaluator = harness.evaluator_for(devices, network)
    simulator = StreamingSimulator(evaluator, extra_gap_ms=extra_gap_ms)
    coedge = CoEdgePlanner()
    controller = PeriodicReplanController(
        planner_fn=lambda t: coedge.plan(model, devices, network),
        network=network,
        replan_threshold=0.0,
        replan_delay_s=0.0,
    )
    initial = coedge.plan(model, devices, network)
    out["coedge"] = summarise(
        simulator.run_duration(
            initial, duration_s, adaptation_hook=controller.adaptation_hook
        )
    )

    # --- AOFL: replans on drift, ~10 min brute-force delay.
    devices, network = scenario.build(seed=seed, trace_kind="dynamic")
    evaluator = harness.evaluator_for(devices, network)
    simulator = StreamingSimulator(evaluator, extra_gap_ms=extra_gap_ms)
    aofl = AOFLPlanner()
    controller = PeriodicReplanController(
        planner_fn=lambda t: aofl.plan(model, devices, network),
        network=network,
        replan_threshold=0.2,
        replan_delay_s=600.0,
    )
    initial = aofl.plan(model, devices, network)
    out["aofl"] = summarise(
        simulator.run_duration(
            initial, duration_s, adaptation_hook=controller.adaptation_hook
        )
    )

    # --- DistrEdge: actor online, fine-tune on partition change.
    devices, network = scenario.build(seed=seed, trace_kind="dynamic")
    evaluator = harness.evaluator_for(devices, network)
    simulator = StreamingSimulator(evaluator, extra_gap_ms=extra_gap_ms)
    distredge = DistrEdge(harness.config.distredge_config(len(devices)))
    online = OnlineDistrEdgeController(
        model=model,
        devices=devices,
        network=network,
        distredge=distredge,
        decision_interval_s=30.0,
        replan_threshold=0.25,
        partition_replan_delay_s=120.0,
        finetune_episodes=max(10, harness.config.osds_episodes // 5),
    )
    initial = online.initial_plan(0.0)
    out["distredge"] = summarise(
        simulator.run_duration(initial, duration_s, adaptation_hook=online.adaptation_hook)
    )
    return out


# --------------------------------------------------------------------------- #
# Fig. 14: nonlinearity of computing latency
# --------------------------------------------------------------------------- #
def figure14(
    device_type: str = "nano",
    model_name: str = "vgg16",
    volume_range: Sequence[int] = (0, 10),
    heights: Optional[Sequence[int]] = None,
) -> Dict[str, np.ndarray]:
    """Computing latency versus output size of a ten-layer layer-volume.

    Reproduces the staircase relationship of Fig. 14: the latency of a fused
    ten-layer volume as a function of the output rows assigned to one device
    is strongly nonlinear because of tile quantisation, per-layer launch
    overheads and the recomputation halo.
    """
    model = model_zoo.get(model_name)
    volume = model.volume(volume_range[0], volume_range[1])
    oracle = ComputeLatencyModel(get_device_type(device_type))
    h = volume.output_height
    heights = heights or list(range(1, h + 1))
    xs, ys = [], []
    for rows in heights:
        if rows < 1 or rows > h:
            continue
        xs.append(rows)
        ys.append(oracle.volume(list(volume.layers), rows))
    return {"output_rows": np.asarray(xs), "latency_ms": np.asarray(ys)}


# --------------------------------------------------------------------------- #
# Fig. 15: transmission vs compute latency breakdown
# --------------------------------------------------------------------------- #
def figure15(
    harness: ExperimentHarness,
    methods: Sequence[str] = ALL_METHODS,
    model_name: str = "vgg16",
) -> Dict[str, Dict[str, float]]:
    """Max transmission and max compute latency per method (DB, 50 Mbps)."""
    scenario = ScenarioCatalog.table1_groups(50.0)["DB"].with_bandwidth(50.0, suffix="50")
    results = harness.compare(scenario, methods, model_name)
    return {
        name: {
            "max_transmission_ms": r.max_transmission_ms,
            "max_compute_ms": r.max_compute_ms,
            "end_to_end_ms": r.latency_ms,
            "ips": r.ips,
        }
        for name, r in results.items()
    }


# --------------------------------------------------------------------------- #
# Serving-side figure: deadline-miss rate versus offered load
# --------------------------------------------------------------------------- #
def serving_load_curve(
    harness: ExperimentHarness,
    scenario: Scenario,
    rates_rps: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    methods: Sequence[str] = ("coedge", "offload"),
    model_name: str = "vgg16",
    duration_s: float = 20.0,
    deadline_ms: Union[float, Sequence[float]] = 200.0,
    policy: Optional["ClusterPolicy"] = None,
    seed: int = 0,
    weight: Union[float, Sequence[float]] = 1.0,
) -> Dict[str, dict]:
    """Deadline-miss rate (and response percentiles) versus offered load.

    One serving run per offered per-tenant Poisson rate on the same fleet:
    every method becomes a tenant (distinct per-tenant arrival seeds, so
    streams are independent), plans are reused across the sweep via the
    harness plan cache, and each point records the pooled deadline-miss
    rate, throughput and response percentiles — the data behind a classic
    miss-rate-vs-load hockey-stick curve.  Pass a
    :class:`~repro.serving.dispatch.ClusterPolicy` to sweep the *contended*
    fleet (per-device lane queueing included), where saturation appears at
    markedly lower offered load.
    """
    out: Dict[str, dict] = {}
    for rate in rates_rps:
        if rate <= 0:
            raise ValueError(f"offered rates must be > 0, got {rate}")
        traffic = [
            PoissonArrivals(rate_rps=float(rate), seed=seed + i)
            for i in range(len(methods))
        ]
        report = harness.serve_scenario(
            scenario,
            methods=methods,
            model_name=model_name,
            traffic=traffic,
            deadline_ms=deadline_ms,
            duration_s=duration_s,
            policy=policy,
            weight=weight,
        )
        row = {
            "offered_rps_per_tenant": float(rate),
            "offered_rps_total": float(rate) * len(methods),
            "completed": report.total_completed,
            "rejected": report.total_rejected,
            "throughput_rps": report.throughput_rps,
            "deadline_miss_rate": report.deadline_miss_rate,
            "p50_response_ms": report.response_percentile_ms(50),
            "p95_response_ms": report.response_percentile_ms(95),
            "p99_response_ms": report.response_percentile_ms(99),
        }
        if report.fleet is not None:
            row["contended_share"] = report.fleet.contended_share
            row["gate_wait_ms"] = report.fleet.gate_wait_ms
        for tenant in report.tenants:
            row[f"miss_rate[{tenant.name}]"] = tenant.deadline_miss_rate
        out[f"{rate:g}rps"] = row
    return out


def load_curve_knee(
    curve: Dict[str, dict], target_miss_rate: float = 0.0
) -> Optional[float]:
    """The knee of a :func:`serving_load_curve`: the saturation point.

    Returns the highest *total* offered load (``offered_rps_total``) whose
    pooled deadline-miss rate stayed within ``target_miss_rate`` — the last
    point before the hockey stick turns up — or ``None`` when every swept
    point already misses the target.  Dividing the knee by the probe fleet's
    device count calibrates the autoscaler's per-device capacity
    (:meth:`repro.serving.control.AutoscalerConfig.from_knee`).
    """
    if not 0.0 <= target_miss_rate <= 1.0:
        raise ValueError(f"target_miss_rate must be in [0, 1], got {target_miss_rate}")
    best: Optional[float] = None
    for row in curve.values():
        if row["deadline_miss_rate"] <= target_miss_rate:
            total = float(row["offered_rps_total"])
            if best is None or total > best:
                best = total
    return best


__all__ = [
    "EXTRA_MODELS",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "load_curve_knee",
    "serving_load_curve",
]
