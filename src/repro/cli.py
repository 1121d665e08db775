"""Command-line interface for the DistrEdge reproduction.

Five subcommands cover the common workflows without writing Python:

``plan``
    Run a distribution method (DistrEdge or any baseline) on a named model
    and an ad-hoc cluster specification, print the resulting strategy and its
    predicted IPS, and optionally save the plan to JSON.
``evaluate``
    Load a saved plan and evaluate it — under an overridden bandwidth, or on
    any ``--scenario`` fleet ``plan``/``compare`` resolve — reporting
    latency, IPS and the per-device breakdown.
``compare``
    Run every method on one scenario from the paper's catalogue and print the
    IPS table (a single cell of Figs. 7-9).
``serve``
    Simulate multi-tenant open-loop serving: several methods' plans share one
    fleet under ``traffic:`` arrival processes with per-tenant SLOs, served
    through the batched event loop of
    :class:`~repro.serving.simulator.ServingSimulator` (the array engine).
``analyze``
    Attribute every request's critical-path latency to queue / gate /
    per-lane compute / send / recv / stall segments — from an exported
    ``--trace-json`` file or an inline serving run — and rank the fleet's
    bottleneck lanes (see :mod:`repro.obs.analysis`).

Clusters are given either as ad-hoc ``--devices`` specs or as ``--scenario``
references — a catalogue name (``DB``, ``LA``...) or a procedural-generator
spec like ``gen:n=32,seed=7,bw=50-300,types=mixed``.

Exit status: 0 on success, 1 when ``analyze`` finds an inexact attribution,
2 on bad input (one line on stderr).  A traceback is a bug.

Examples
--------
::

    python -m repro.cli plan --model vgg16 --devices xavier:300 nano:300 \
        --method distredge --episodes 200 --output plan.json
    python -m repro.cli plan --model vgg16 --scenario gen:n=32,seed=7 \
        --method aofl
    python -m repro.cli evaluate plan.json --bandwidth 50
    python -m repro.cli evaluate plan.json --scenario gen:n=32,seed=7
    python -m repro.cli compare --scenario DB --bandwidth 300 --episodes 150
    python -m repro.cli compare --scenario gen:n=32,seed=7
    python -m repro.cli serve --scenario gen:n=16,seed=7 --duration 30 \
        --tenant coedge --tenant offload --traffic traffic:poisson,rate=2
    python -m repro.cli serve --scenario DB --contention --discipline wfq \
        --weight 3 --weight 1 --max-inflight 4 --report-json serve.json
    python -m repro.cli serve --scenario DB --figure --figure-rates 0.5,1,2,4
    python -m repro.cli serve --scenario gen:n=32,seed=7 --mode parity \
        --duration 60
    python -m repro.cli serve --scenario gen:n=16,seed=7 --duration 30 \
        --churn churn:crashes=2,seed=7 --retry-max 3 --degrade-min-live 0.5
    python -m repro.cli serve --scenario DB --contention --alerts \
        --alert-fast-s 5 --alert-slow-s 30 --duration 60
    python -m repro.cli analyze --scenario DB --contention --max-inflight 2 \
        --duration 10 --figure
    python -m repro.cli analyze --trace-json serve_trace.json --top 5
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import BASELINE_REGISTRY
from repro.core.distredge import DistrEdge, DistrEdgeConfig
from repro.core.osds import OSDSConfig
from repro.experiments.harness import ALL_METHODS, ExperimentHarness, HarnessConfig
from repro.experiments.reporting import format_ips_table
from repro.experiments.scenarios import GENERATOR_PREFIX, Scenario, resolve_scenario
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.serialization import evaluation_to_dict, save_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import ChurnSpec, DegradationPolicy, RetryPolicy
    from repro.serving import ClusterPolicy

#: Each subcommand resolves its flags and files into one of these: the run
#: step, with every input already bound.
Run = Callable[[], int]

#: Tuning flags that only mean something with a feature switched on, with
#: their defaults.  The parser takes its defaults from here, so the "pass
#: --contention/--churn/--alerts" checks compare against the one copy.
_CONTENTION_KNOBS = {
    "discipline": "fifo",
    "max_inflight": None,
    "weight": None,
    "admission": "none",
    "window_ms": None,
}
_CHURN_KNOBS = {
    "retry_max": 3,
    "retry_backoff_ms": 50.0,
    "retry_jitter_ms": 10.0,
    "retry_timeout_ms": None,
    "degrade_min_live": None,
}
_ALERT_KNOBS = {
    "alert_fast_s": 5.0,
    "alert_slow_s": 30.0,
    "alert_burn": 1.0,
    "alert_target": 0.05,
}


def _require_switch(args: argparse.Namespace, knobs: dict, enabled: bool, purpose: str) -> None:
    """Reject tuning flags given without the switch that enables them."""
    if not enabled and any(getattr(args, dest) != value for dest, value in knobs.items()):
        flags = "/".join("--" + dest.replace("_", "-") for dest in knobs)
        raise ValueError(f"{flags} {purpose}")


def _parse_device_specs(specs: Sequence[str]) -> List[tuple]:
    """Parse ``type[:bandwidth]`` strings into make_cluster entries."""
    out = []
    for spec in specs:
        if ":" in spec:
            name, bandwidth = spec.split(":", 1)
            out.append((name, float(bandwidth)))
        else:
            out.append((spec, 300.0))
    return out


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (bandwidths, durations, rates, deadlines)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (slot counts, queue capacities, --top)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _read_json(path: str):
    """Load a JSON input file (``OSError`` if unreadable, ``ValueError`` if malformed)."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _scenario_from_args(name: str, bandwidth: Optional[float]) -> Scenario:
    """Resolve a ``--scenario`` argument, applying ``--bandwidth`` if given.

    Shared by every subcommand so a scenario name means the *same fleet*
    everywhere (catalogue Table-I groups default to 200 Mbps; reshape with
    ``--bandwidth``).  Raises ``KeyError``/``ValueError`` on an unknown or
    malformed name.
    """
    generated = name.startswith(GENERATOR_PREFIX)
    if generated and bandwidth is not None:
        print(
            "note: --bandwidth does not apply to gen: scenarios; "
            "use the spec's bw= key (e.g. gen:n=8,bw=100)",
            file=sys.stderr,
        )
    scenario = resolve_scenario(name)
    if bandwidth is not None and not generated:
        scenario = scenario.with_bandwidth(bandwidth)
    return scenario


def _resolve_plan(args: argparse.Namespace) -> Run:
    if args.scenario is not None:
        scenario = _scenario_from_args(args.scenario, args.bandwidth)
    else:
        if args.bandwidth is not None:
            print(
                "note: --bandwidth only applies with --scenario; "
                "give per-device rates as type:mbps specs",
                file=sys.stderr,
            )
        scenario = Scenario.adhoc(_parse_device_specs(args.devices))
    devices, network = scenario.build(seed=args.seed)
    if args.method == "distredge":
        planner = DistrEdge(
            DistrEdgeConfig(
                alpha=args.alpha,
                num_random_splits=args.random_splits,
                osds=OSDSConfig(
                    max_episodes=args.episodes,
                    seed=args.seed,
                    episode_batch=args.episode_batch,
                    policy_refresh=args.policy_refresh,
                ),
                seed=args.seed,
            )
        )
    else:
        planner = BASELINE_REGISTRY[args.method]()
    return partial(_run_plan, args, scenario, planner, devices, network)


def _run_plan(args: argparse.Namespace, scenario, planner, devices, network) -> int:
    if scenario.name != "adhoc":
        print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    plan = planner.plan(model_zoo.get(args.model), devices, network)
    print(plan.describe())
    result = PlanEvaluator(devices, network).evaluate(plan)
    print(f"predicted latency: {result.end_to_end_ms:.1f} ms ({result.ips:.2f} IPS)")
    if args.output:
        path = save_plan(plan, args.output)
        print(f"plan written to {path}")
    return 0


def _resolve_evaluate(args: argparse.Namespace) -> Run:
    from repro.runtime.plan import DistributionPlan
    from repro.runtime.serialization import plan_from_dict

    data = _read_json(args.plan)
    if args.scenario is None:
        if args.bandwidth is not None:
            for entry in data["devices"]:
                entry["bandwidth_mbps"] = float(args.bandwidth)
        plan = plan_from_dict(data)
        return partial(
            _run_evaluate, None, plan, NetworkModel.constant_from_devices(plan.devices)
        )
    # Re-evaluate the saved strategy on a fleet resolved exactly as
    # plan/compare resolve it (catalogue name or gen: spec, --bandwidth
    # reshaping catalogue links).  Device types must match the plan.
    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    plan = plan_from_dict(data)
    devices, network = scenario.build(seed=args.seed)
    if [d.type_name for d in devices] != [d.type_name for d in plan.devices]:
        raise ValueError(
            f"scenario {scenario.name!r} fleet "
            f"({[d.type_name for d in devices]}) does not match the plan's "
            f"devices ({[d.type_name for d in plan.devices]})"
        )
    plan = DistributionPlan(
        plan.model,
        devices,
        plan.boundaries,
        plan.decisions,
        head_device=plan.head_device,
        method=plan.method,
    )
    return partial(_run_evaluate, scenario, plan, network)


def _run_evaluate(scenario: Optional[Scenario], plan, network) -> int:
    if scenario is not None:
        print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    result = PlanEvaluator(plan.devices, network).evaluate(plan)
    summary = evaluation_to_dict(result)
    print(f"method: {plan.method}  model: {plan.model.name}")
    print(f"latency: {summary['end_to_end_ms']:.1f} ms   IPS: {summary['ips']:.2f}")
    print(f"max compute: {summary['max_compute_ms']:.1f} ms   "
          f"max transmission: {summary['max_transmission_ms']:.1f} ms")
    for device, compute in zip(plan.devices, summary["per_device_compute_ms"]):
        print(f"  {device.device_id:12s} compute {compute:8.1f} ms")
    return 0


def _resolve_compare(args: argparse.Namespace) -> Run:
    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    config = HarnessConfig(
        osds_episodes=args.episodes,
        num_random_splits=args.random_splits,
        seed=args.seed,
        osds_episode_batch=args.episode_batch,
        osds_policy_refresh=args.policy_refresh,
    )
    # compare always runs DistrEdge: building its config now makes a bad
    # planner knob an input error rather than a failure mid-comparison.
    config.distredge_config(scenario.num_devices)
    return partial(_run_compare, args, scenario, ExperimentHarness(config))


def _run_compare(args: argparse.Namespace, scenario: Scenario, harness) -> int:
    results = harness.compare(scenario, methods=ALL_METHODS, model_name=args.model)
    print(
        format_ips_table({scenario.name: harness.ips_table(results)}, methods=list(ALL_METHODS))
    )
    print(f"DistrEdge speedup over best baseline: "
          f"{harness.speedup_over_best_baseline(results):.2f}x")
    return 0


def _parse_tenant_ref(ref: str, default_model: str) -> tuple:
    """Parse a ``--tenant`` reference ``method[@model]``."""
    method, _, model_name = ref.partition("@")
    method = method.strip()
    model_name = model_name.strip() or default_model
    known = ["distredge", *sorted(BASELINE_REGISTRY)]
    if method not in known:
        raise ValueError(f"unknown tenant method {method!r}; known: {known}")
    if model_name not in model_zoo.list_models():
        raise ValueError(
            f"unknown tenant model {model_name!r}; known: {model_zoo.list_models()}"
        )
    return method, model_name


def _broadcast(values, count: int, default, flag: str) -> List:
    """One value per tenant: broadcast a single value, pass lists through."""
    if not values:
        return [default] * count
    if len(values) == 1:
        return list(values) * count
    if len(values) != count:
        raise ValueError(f"{flag} given {len(values)} times for {count} tenants; pass 1 or {count}")
    return list(values)


def _provenance(args: argparse.Namespace) -> dict:
    """Reproducibility stamp attached to every ``--report-json`` payload.

    Records what produced the file: the repro version, the exact invocation
    argv, and the resolved scenario spec — enough to re-run the experiment
    without the shell history that generated it.
    """
    from repro.version import __version__

    return {
        "repro_version": __version__,
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
        "scenario": getattr(args, "scenario", None),
    }


def _write_report_json(path: str, payload, provenance=None) -> None:
    if provenance is not None and isinstance(payload, dict):
        payload = {**payload, "provenance": provenance}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"report written to {path}")


@dataclass
class _ServingInputs:
    """What ``serve`` and ``analyze`` resolve from the flags they share.

    Per-tenant lists are aligned with ``refs``.  ``faults`` is the parsed
    ``churn:`` spec, not yet resolved against a fleet: the control-plane
    paths re-resolve it at every fleet size.
    """

    scenario: Scenario
    refs: List[Tuple[str, str]]  # (method, model name)
    planners: list
    traffics: list
    deadlines: List[float]
    capacities: List[Optional[int]]
    weights: List[float]
    slots: List[int]
    policy: Optional[ClusterPolicy]
    faults: Optional[ChurnSpec]
    retry: Optional[RetryPolicy]
    degradation: Optional[DegradationPolicy]

    @property
    def methods(self) -> List[str]:
        return [method for method, _ in self.refs]

    def single_model(self, purpose: str) -> str:
        """The one model every tenant names (sweeps and resizing need one)."""
        models = sorted({model_name for _, model_name in self.refs})
        if len(models) > 1:
            raise ValueError(f"{purpose} one model; tenants name {models}")
        return models[0]


def _resolve_serving(args: argparse.Namespace) -> _ServingInputs:
    """Resolve the flags of :func:`_add_serving_flags` (``serve`` and ``analyze``)."""
    from repro.runtime.faults import DegradationPolicy, RetryPolicy, parse_churn_spec
    from repro.serving import ClusterPolicy, PoissonArrivals, resolve_traffic

    refs = [_parse_tenant_ref(ref, args.model) for ref in args.tenants or ["coedge", "offload"]]
    weights = _broadcast(args.weight, len(refs), 1.0, "--weight")
    if not all(w > 0 for w in weights):
        raise ValueError(f"--weight values must be > 0, got {weights}")
    _require_switch(args, _CONTENTION_KNOBS, args.contention,
                    "model shared-fleet contention; pass --contention to enable it")
    _require_switch(args, _CHURN_KNOBS, args.churn is not None,
                    "model fleet churn; pass --churn to enable them")
    policy = faults = retry = degradation = None
    if args.contention:
        policy = ClusterPolicy(
            discipline=args.discipline,
            max_inflight=args.max_inflight,
            admission=args.admission,
            on_predicted_miss=args.on_predicted_miss,
            window_ms=args.window_ms,
        )
    if args.churn is not None:
        faults = parse_churn_spec(args.churn)
        retry = RetryPolicy(
            max_attempts=args.retry_max,
            backoff_ms=args.retry_backoff_ms,
            jitter_ms=args.retry_jitter_ms,
            timeout_ms=args.retry_timeout_ms,
            seed=args.seed,
        )
        if args.degrade_min_live is not None:
            degradation = DegradationPolicy(min_live_fraction=args.degrade_min_live)
    traffics = [
        resolve_traffic(spec) if spec is not None
        else PoissonArrivals(rate_rps=args.rate, seed=args.seed + i)
        for i, spec in enumerate(_broadcast(args.traffic, len(refs), None, "--traffic"))
    ]
    return _ServingInputs(
        scenario=_scenario_from_args(args.scenario, args.bandwidth),
        refs=refs,
        planners=[_tenant_planner(args, method) for method, _ in refs],
        traffics=traffics,
        deadlines=_broadcast(args.deadline_ms, len(refs), 1000.0, "--deadline-ms"),
        capacities=_broadcast(args.queue_capacity, len(refs), None, "--queue-capacity"),
        weights=weights,
        slots=_broadcast(args.slots, len(refs), 1, "--slots"),
        policy=policy,
        faults=faults,
        retry=retry,
        degradation=degradation,
    )


def _tenant_planner(args: argparse.Namespace, method: str):
    if method == "distredge":
        return DistrEdge(
            DistrEdgeConfig(
                osds=OSDSConfig(max_episodes=args.episodes, seed=args.seed),
                seed=args.seed,
            )
        )
    return BASELINE_REGISTRY[method]()


def _build_fleet(args: argparse.Namespace, inputs: _ServingInputs):
    """Build a single run's fleet and resolve ``--churn`` against it.

    Resolving up front makes a bad device id in the spec an input error
    rather than a failure mid-run.
    """
    from repro.runtime.faults import resolve_churn

    devices, network = inputs.scenario.build(seed=args.seed)
    faults = inputs.faults
    if faults is not None:
        faults = resolve_churn(faults, inputs.scenario.num_devices)
    return devices, network, faults


def _plan_tenants(inputs: _ServingInputs, devices, network) -> list:
    """Plan each tenant on the fleet and wrap it in a TenantSpec."""
    from repro.serving import SLO, TenantSpec

    methods = inputs.methods
    return [
        TenantSpec(
            # Suffix only on duplicate methods (same rule as
            # ExperimentHarness.serve_scenario, so reports correlate).
            name=method if methods.count(method) == 1 else f"{method}-{i}",
            plan=planner.plan(model_zoo.get(model_name), devices, network),
            traffic=inputs.traffics[i],
            slo=SLO(deadline_ms=inputs.deadlines[i]),
            queue_capacity=inputs.capacities[i],
            weight=inputs.weights[i],
            slots=inputs.slots[i],
        )
        for i, ((method, model_name), planner) in enumerate(zip(inputs.refs, inputs.planners))
    ]


def _resolve_serve(args: argparse.Namespace) -> Run:
    inputs = _resolve_serving(args)
    alerting = args.alerts or args.alerts_json
    _require_switch(args, _ALERT_KNOBS, alerting,
                    "tune SLO burn-rate alerting; pass --alerts or --alerts-json to enable it")
    alert_monitor = None
    if alerting:
        from repro.obs.slo import BurnRateRule, SLOMonitor

        rule = BurnRateRule("burn", args.alert_fast_s, args.alert_slow_s, args.alert_burn)
        alert_monitor = SLOMonitor(rules=(rule,), default_target=args.alert_target)
    if args.plan_capacity or args.autoscale:
        if args.plan_capacity and args.autoscale:
            raise ValueError("--plan-capacity and --autoscale are mutually exclusive")
        if args.metrics_json or args.profile or alert_monitor is not None:
            raise ValueError(
                "--metrics-json/--profile/--alerts instrument a single "
                "serving run; --plan-capacity/--autoscale run many (use "
                "--trace-json for the control-plane timeline)"
            )
        return _resolve_control_plane(args, inputs)
    if args.figure:
        if args.trace_json or args.metrics_json or args.profile or alert_monitor is not None:
            raise ValueError(
                "--trace-json/--metrics-json/--profile/--alerts instrument a "
                "single serving run; --figure sweeps many (drop --figure or "
                "the observability flags)"
            )
        if inputs.faults is not None:
            raise ValueError(
                "--figure sweeps offered load on an immortal fleet; drop --churn"
            )
        rates = [float(part) for part in args.figure_rates.split(",") if part.strip()]
        if not rates or not all(math.isfinite(rate) and rate > 0 for rate in rates):
            raise ValueError(
                f"--figure-rates must be finite positive rates, got {args.figure_rates!r}"
            )
        model_name = inputs.single_model("--figure sweeps")
        return partial(_run_serve_figure, args, inputs, rates, model_name)
    return partial(_run_serve, args, inputs, _build_fleet(args, inputs), alert_monitor)


def _resolve_control_plane(args: argparse.Namespace, inputs: _ServingInputs) -> Run:
    """``serve --plan-capacity`` / ``--autoscale``: runs that resize the fleet.

    Both need ``--contention``, a seeded ``gen:`` scenario spec (catalogue
    fleets have a fixed size) and a single model across tenants (one
    :meth:`ExperimentHarness.serve_scenario` call per fleet size).
    """
    from repro.experiments.reporting import format_autoscale_report, format_capacity_plan
    from repro.obs import Tracer
    from repro.serving.control import (
        AutoscalerConfig,
        CapacityPlanConfig,
        CapacityPlanner,
        FleetAutoscaler,
    )

    if inputs.policy is None:
        raise ValueError(
            "--plan-capacity/--autoscale size fleets against contended "
            "serving; pass --contention (typically with --admission predictive)"
        )
    if not args.scenario.startswith(GENERATOR_PREFIX):
        raise ValueError(
            f"--plan-capacity/--autoscale resize the fleet, so --scenario must "
            f"be a seeded {GENERATOR_PREFIX!r} spec (e.g. gen:n=2,seed=3); "
            f"got {args.scenario!r}"
        )
    model_name = inputs.single_model("--plan-capacity/--autoscale serve")
    parts = args.fleet_range.split(":")
    if len(parts) != 2 or not all(part.strip().isdigit() for part in parts):
        raise ValueError(f"--fleet-range must be two integers MIN:MAX, got {args.fleet_range!r}")
    lo, hi = int(parts[0]), int(parts[1])
    harness = ExperimentHarness(HarnessConfig(osds_episodes=args.episodes, seed=args.seed))
    tracer = Tracer() if args.trace_json else None
    runner_args = dict(
        methods=inputs.methods,
        model_name=model_name,
        traffic=inputs.traffics,
        deadline_ms=inputs.deadlines,
        queue_capacity=None,
        policy=inputs.policy,
        weight=inputs.weights,
        slots=inputs.slots,
        faults=inputs.faults,
        retry=inputs.retry,
        degradation=inputs.degradation,
    )
    if args.plan_capacity:
        config = CapacityPlanConfig(
            min_devices=lo, max_devices=hi, target_miss_rate=args.target_miss_rate
        )
        probe = harness.capacity_probe_runner(
            args.scenario, duration_s=args.duration, **runner_args
        )
        step = CapacityPlanner(probe, config, tracer=tracer).plan
        render = partial(format_capacity_plan, title="capacity plan")
    else:
        config = AutoscalerConfig(
            min_devices=lo,
            max_devices=hi,
            window_s=args.window_s,
            low_utilization=args.scale_low,
            high_utilization=args.scale_high,
            step=args.scale_step,
            target_miss_rate=args.target_miss_rate,
            capacity_per_device_rps=args.capacity_per_device_rps,
            trigger=args.scale_trigger.replace("-", "_"),
            burn_threshold=args.burn_threshold,
            burn_windows=args.burn_windows,
        )
        run_window = harness.autoscale_window_runner(
            args.scenario, window_s=args.window_s, num_windows=args.windows, **runner_args
        )
        autoscaler = FleetAutoscaler(run_window, config, tracer=tracer)
        step = partial(autoscaler.run, args.windows, initial_devices=lo)
        render = partial(format_autoscale_report, title="autoscaled serving")
    return partial(_run_control_plane, args, step, render, tracer)


def _run_control_plane(args: argparse.Namespace, step, render, tracer) -> int:
    report = step()
    print(render(report))
    if tracer is not None:
        tracer.write_chrome(args.trace_json, provenance=_provenance(args))
        print(f"trace written to {args.trace_json}")
    if args.report_json:
        _write_report_json(args.report_json, report.to_dict(), provenance=_provenance(args))
    return 0


def _run_serve_figure(
    args: argparse.Namespace, inputs: _ServingInputs, rates: List[float], model_name: str
) -> int:
    """The ``serve --figure`` path: deadline-miss vs offered-load sweep."""
    from repro.experiments.figures import serving_load_curve
    from repro.experiments.reporting import format_series

    if args.mode != "batched":
        print(f"note: --figure always sweeps in batched mode; --mode {args.mode} ignored",
              file=sys.stderr)
    harness = ExperimentHarness(HarnessConfig(osds_episodes=args.episodes, seed=args.seed))
    curve = serving_load_curve(
        harness,
        inputs.scenario,
        rates_rps=rates,
        methods=inputs.methods,
        model_name=model_name,
        duration_s=args.duration,
        deadline_ms=inputs.deadlines,
        policy=inputs.policy,
        seed=args.seed,
        weight=inputs.weights,
    )
    print(format_series(curve, title="deadline-miss rate vs offered load"))
    if args.report_json:
        _write_report_json(args.report_json, curve, provenance=_provenance(args))
    return 0


def _run_serve(
    args: argparse.Namespace, inputs: _ServingInputs, fleet, alert_monitor
) -> int:
    from repro.experiments.reporting import (
        format_fault_report,
        format_fleet_table,
        format_serving_table,
    )
    from repro.runtime.batch import BatchPlanEvaluator
    from repro.serving import ServingSimulator, run_with_parity

    devices, network, faults = fleet
    evaluator = BatchPlanEvaluator(devices, network)
    print(f"scenario: {inputs.scenario.name} ({inputs.scenario.num_devices} providers)")
    tracer = metrics = None
    if args.trace_json or args.metrics_json:
        from repro.obs import MetricsRegistry, Tracer, record_serving_report

        if args.trace_json:
            tracer = Tracer()
        if args.metrics_json:
            metrics = MetricsRegistry()
    tenants = _plan_tenants(inputs, devices, network)
    run_args = dict(
        duration_s=args.duration,
        policy=inputs.policy,
        faults=faults,
        retry=inputs.retry,
        degradation=inputs.degradation,
        tracer=tracer,
    )
    if args.mode == "parity":
        reference = PlanEvaluator(devices, network)
        report = run_with_parity(evaluator, reference, tenants, **run_args)
        print("parity: batched loop is bit-identical to the reference loop")
        if metrics is not None:
            # run_with_parity returns the committed report; derive the
            # registry from it exactly as ServingSimulator.run would.
            record_serving_report(metrics, report)
    else:
        simulator = ServingSimulator(evaluator)
        report = simulator.run(tenants, mode=args.mode, metrics=metrics, **run_args)
    print(format_serving_table(report))
    if report.fleet is not None:
        print(format_fleet_table(report, title="fleet lane load"))
    if report.faults is not None:
        print(format_fault_report(report, title="fleet churn"))
    if report.slo_violations:
        print(f"SLO violations: {', '.join(report.slo_violations)}")
    if alert_monitor is not None:
        from repro.experiments.reporting import format_alert_timeline

        # Evaluate before the trace is written so the alert instants
        # land on the control:slo track of --trace-json.
        timeline = alert_monitor.evaluate(report, tracer=tracer)
        if args.alerts:
            print(format_alert_timeline(timeline, title="SLO burn-rate alerts"))
        if args.alerts_json:
            _write_report_json(
                args.alerts_json, timeline.to_dict(), provenance=_provenance(args)
            )
    if tracer is not None:
        tracer.write_chrome(args.trace_json, provenance=_provenance(args))
        print(f"trace written to {args.trace_json}")
    if metrics is not None:
        snapshot = {**metrics.snapshot(), "provenance": _provenance(args)}
        Path(args.metrics_json).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"metrics written to {args.metrics_json}")
    if args.profile:
        args._profiler.counters.update(_serve_counters(args._profiler, report, evaluator))
    if args.report_json:
        _write_report_json(args.report_json, report.to_dict(), provenance=_provenance(args))
    return 0


def _serve_counters(profiler, report, evaluator) -> Dict[str, int]:
    """The counters a serving run already records, for the ``--profile`` table."""
    cache = evaluator.cache_info()
    counters = {
        "report.epochs": report.epochs,
        "report.cache_hits": report.cache_hits,
        "report.speculated": report.speculated,
        "batch.plan_cache_hits": cache["hits"],
        "batch.plan_cache_lookups": cache["hits"] + cache["misses"],
    }
    predicts = profiler.calls("runtime.contention.ContentionAwareEvaluator.predict")
    if predicts:
        # A contended run's cache hits are its schedule-memo hits; a predict
        # that neither hits the memo nor walks is an idle-bound denial.
        walks = profiler.calls("runtime.contention.ContentionAwareEvaluator._schedule")
        counters["contention.walks"] = walks
        counters["contention.idle_denials"] = predicts - report.cache_hits - walks
    return counters


def _resolve_analyze(args: argparse.Namespace) -> Run:
    if args.trace_json is not None:
        from repro.obs.analysis import analyze_chrome

        analysis = analyze_chrome(_read_json(args.trace_json))
        return partial(_report_analysis, args, analysis)
    inputs = _resolve_serving(args)
    return partial(_analyze_inline_run, args, inputs, _build_fleet(args, inputs))


def _analyze_inline_run(args: argparse.Namespace, inputs: _ServingInputs, fleet) -> int:
    """One traced batched serving run, resolved exactly as ``serve`` resolves it."""
    from repro.obs import Tracer
    from repro.obs.analysis import analyze_serving
    from repro.runtime.batch import BatchPlanEvaluator
    from repro.serving import ServingSimulator

    devices, network, faults = fleet
    print(f"scenario: {inputs.scenario.name} ({inputs.scenario.num_devices} providers)")
    tracer = Tracer()
    report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        _plan_tenants(inputs, devices, network),
        duration_s=args.duration,
        policy=inputs.policy,
        faults=faults,
        retry=inputs.retry,
        degradation=inputs.degradation,
        tracer=tracer,
    )
    return _report_analysis(args, analyze_serving(report, tracer))


def _report_analysis(args: argparse.Namespace, analysis) -> int:
    from repro.experiments.reporting import (
        format_attribution_table,
        format_bottleneck_table,
        format_breakdown_chart,
    )

    print(format_attribution_table(analysis, title="critical-path attribution"))
    print(format_bottleneck_table(analysis, title="fleet bottleneck ranking", top=args.top))
    if args.figure:
        print(format_breakdown_chart(analysis, title="latency breakdown"))
    if args.report_json:
        _write_report_json(args.report_json, analysis.to_dict(), provenance=_provenance(args))
    if not analysis.exact:
        print(
            "attribution is INEXACT: segments do not telescope to the "
            "measured latency (a bug, or a hand-edited trace file)",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_planner_width_flags(parser: argparse.ArgumentParser) -> None:
    """OSDS execution flags shared by ``plan`` and ``compare``."""
    parser.add_argument("--episode-batch", type=int, default=8,
                        help="OSDS episodes rolled out in lockstep per vectorised "
                             "round (execution width only; results are bit-identical "
                             "at any value, 1 = scalar loop). Rounds never cross a "
                             "policy-refresh boundary, so widths beyond "
                             "--policy-refresh need that knob raised too")
    parser.add_argument("--policy-refresh", type=int, default=8,
                        help="episodes between OSDS acting-policy snapshot refreshes "
                             "(semantic: changing it changes which policy explores)")


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """The run flags ``serve`` and ``analyze`` share, spelled identically so a
    serve invocation becomes an analysis by swapping the subcommand."""
    parser.add_argument("--scenario", default="DB",
                        help="catalogue name or gen: spec (same resolution as "
                             "plan/compare)")
    parser.add_argument("--bandwidth", type=_positive_float, default=None,
                        help="re-shape every link of a catalogue --scenario (Mbps)")
    parser.add_argument("--tenant", action="append", dest="tenants",
                        metavar="METHOD[@MODEL]",
                        help="repeatable tenant spec, e.g. coedge@vgg16 "
                             "(model defaults to --model); default: "
                             "coedge + offload")
    parser.add_argument("--model", default="vgg16", choices=model_zoo.list_models(),
                        help="default model for --tenant entries without @MODEL")
    parser.add_argument("--traffic", action="append", default=None,
                        help="repeatable traffic: spec, one per tenant or one "
                             "shared (e.g. traffic:poisson,rate=5 or "
                             "traffic:mmpp,low=1,high=20); default: Poisson at "
                             "--rate with per-tenant seeds")
    parser.add_argument("--rate", type=_positive_float, default=2.0,
                        help="default Poisson arrival rate (req/s) when no "
                             "--traffic is given")
    parser.add_argument("--deadline-ms", action="append", type=_positive_float, default=None,
                        help="repeatable per-tenant SLO deadline (ms); default 1000")
    parser.add_argument("--duration", type=_positive_float, default=30.0,
                        help="open-loop arrival horizon (simulated seconds)")
    parser.add_argument("--episodes", type=int, default=50,
                        help="OSDS episodes for distredge tenants")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contention", action="store_true",
                        help="model shared-fleet lane contention: concurrent "
                             "requests queue on per-device compute/send/recv "
                             "lanes instead of each seeing an idle fleet "
                             "(lane attribution needs it to show waiting)")
    parser.add_argument("--discipline", choices=["fifo", "deadline", "wfq"],
                        default=_CONTENTION_KNOBS["discipline"],
                        help="cross-tenant dispatch order under --contention: "
                             "release-time FIFO, least deadline slack first, "
                             "or weighted fair queueing (see --weight)")
    parser.add_argument("--max-inflight", type=int, default=_CONTENTION_KNOBS["max_inflight"],
                        help="cluster-wide cap on concurrently in-flight "
                             "requests under --contention (admission gate; its "
                             "wait is the 'gate' segment); default unlimited")
    parser.add_argument("--weight", action="append", type=float,
                        default=_CONTENTION_KNOBS["weight"],
                        help="repeatable per-tenant WFQ fair-share weight "
                             "(with --contention --discipline wfq); default 1")
    parser.add_argument("--admission", choices=["none", "predictive"],
                        default=_CONTENTION_KNOBS["admission"],
                        help="admission control under --contention: "
                             "'predictive' asks the contention evaluator for "
                             "each request's completion at release time and "
                             "intercepts predicted SLO misses before they "
                             "occupy the fleet")
    parser.add_argument("--on-predicted-miss", choices=["reject", "requeue"],
                        default="reject",
                        help="what --admission predictive does with an "
                             "intercepted request: deny it (counted per "
                             "tenant) or defer it to the fleet's next "
                             "lane-free event and re-predict")
    parser.add_argument("--window-ms", type=float, default=_CONTENTION_KNOBS["window_ms"],
                        help="attach a windowed fleet-load time series "
                             "(busy/wait/inflight per device per window of "
                             "this width) to the contended run's report")
    parser.add_argument("--churn", default=None, metavar="SPEC",
                        help="inject seeded fleet churn from a churn: spec, "
                             "e.g. churn:events=crash:0@500;join:0@2000 or "
                             "churn:crashes=2,seed=7; crashes kill in-flight "
                             "requests, which retry on a strategy replanned "
                             "around the surviving devices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a distribution strategy")
    p_plan.add_argument("--model", default="vgg16", choices=model_zoo.list_models())
    cluster = p_plan.add_mutually_exclusive_group(required=True)
    cluster.add_argument("--devices", nargs="+",
                         help="device specs like xavier:300 nano:50")
    cluster.add_argument("--scenario", default=None,
                         help="catalogue name (DB, LA, ...) or generator spec "
                              "like gen:n=32,seed=7,bw=50-300,types=mixed; "
                              "catalogue Table-I groups default to 200 Mbps "
                              "(override with --bandwidth)")
    p_plan.add_argument("--bandwidth", type=_positive_float, default=None,
                        help="re-shape every link of a catalogue --scenario "
                             "to this rate in Mbps")
    p_plan.add_argument("--method", default="distredge",
                        choices=["distredge", *sorted(BASELINE_REGISTRY)])
    p_plan.add_argument("--episodes", type=int, default=200)
    _add_planner_width_flags(p_plan)
    p_plan.add_argument("--alpha", type=float, default=0.75)
    p_plan.add_argument("--random-splits", type=int, default=30)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--output", default=None, help="write the plan to this JSON file")
    p_plan.add_argument("--profile", action="store_true",
                        help="print a wall-clock profile (calls, busy and self "
                             "time per layer) of the planning search and final "
                             "evaluation (host time only)")
    p_plan.set_defaults(resolve=_resolve_plan)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved plan")
    p_eval.add_argument("plan", help="path to a plan JSON file")
    p_eval.add_argument("--bandwidth", type=_positive_float, default=None,
                        help="override every provider's bandwidth (Mbps); with "
                             "--scenario, re-shapes a catalogue scenario's links "
                             "instead (same semantics as plan/compare)")
    p_eval.add_argument("--scenario", default=None,
                        help="re-evaluate the plan on this fleet — catalogue name "
                             "or gen: spec, resolved exactly as plan/compare "
                             "resolve it; device types must match the plan")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="scenario build seed (trace construction)")
    p_eval.set_defaults(resolve=_resolve_evaluate)

    p_serve = sub.add_parser(
        "serve", help="simulate multi-tenant open-loop serving on one fleet"
    )
    _add_serving_flags(p_serve)
    p_serve.add_argument("--queue-capacity", action="append", type=_positive_int, default=None,
                         help="repeatable per-tenant admission bound (waiting "
                              "requests); default unbounded")
    p_serve.add_argument("--mode", choices=["batched", "reference", "parity"],
                         default="batched",
                         help="event loop: batched array engine (default), "
                              "naive per-request reference, or parity (run "
                              "both and assert bit-identical)")
    p_serve.add_argument("--slots", action="append", type=_positive_int, default=None,
                         help="repeatable per-tenant service-slot count "
                              "(within-tenant concurrency); default 1, the "
                              "paper's one-image-in-flight protocol")
    p_serve.add_argument("--retry-max", type=int, default=_CHURN_KNOBS["retry_max"],
                         help="retry attempts per request under --churn before "
                              "it is abandoned (default 3)")
    p_serve.add_argument("--retry-backoff-ms", type=float,
                         default=_CHURN_KNOBS["retry_backoff_ms"],
                         help="base exponential-backoff delay between retry "
                              "attempts under --churn (default 50)")
    p_serve.add_argument("--retry-jitter-ms", type=float,
                         default=_CHURN_KNOBS["retry_jitter_ms"],
                         help="seeded uniform jitter added to each backoff "
                              "delay under --churn (default 10)")
    p_serve.add_argument("--retry-timeout-ms", type=float,
                         default=_CHURN_KNOBS["retry_timeout_ms"],
                         help="per-request wall-clock budget across all retry "
                              "attempts under --churn; default unbounded")
    p_serve.add_argument("--degrade-min-live", type=float,
                         default=_CHURN_KNOBS["degrade_min_live"],
                         help="graceful degradation under --churn: while the "
                              "live fleet fraction is below this threshold, "
                              "shed arrivals of the lowest-weight tenants "
                              "(deterministically) instead of queueing them; "
                              "default: no shedding")
    p_serve.add_argument("--plan-capacity", action="store_true",
                         help="binary-search the minimum fleet size (within "
                              "--fleet-range) whose run meets "
                              "--target-miss-rate, instead of one serving run; "
                              "needs a gen: --scenario and --contention")
    p_serve.add_argument("--autoscale", action="store_true",
                         help="serve --windows windows of --window-s seconds, "
                              "resizing the fleet between windows from "
                              "measured utilisation; needs a gen: --scenario "
                              "and --contention")
    p_serve.add_argument("--fleet-range", default="1:8", metavar="MIN:MAX",
                         help="fleet-size bounds for --plan-capacity / "
                              "--autoscale (default 1:8)")
    p_serve.add_argument("--target-miss-rate", type=float, default=0.0,
                         help="highest acceptable effective miss rate "
                              "(denials count as misses) for --plan-capacity "
                              "and the autoscaler's grow trigger; default 0")
    p_serve.add_argument("--windows", type=int, default=6,
                         help="number of autoscaler windows (default 6)")
    p_serve.add_argument("--window-s", type=float, default=5.0,
                         help="autoscaler window length in simulated seconds "
                              "(default 5)")
    p_serve.add_argument("--scale-low", type=float, default=0.3,
                         help="autoscaler shrink threshold: mean compute "
                              "utilisation below this shrinks the fleet by "
                              "--scale-step (default 0.3)")
    p_serve.add_argument("--scale-high", type=float, default=0.8,
                         help="autoscaler grow threshold: mean compute "
                              "utilisation above this grows the fleet by "
                              "--scale-step (default 0.8)")
    p_serve.add_argument("--scale-step", type=int, default=1,
                         help="devices added/removed per autoscaler decision "
                              "(default 1)")
    p_serve.add_argument("--scale-trigger", choices=["utilization", "burn-rate"],
                         default="utilization",
                         help="autoscaler decision signal: windowed compute "
                              "utilisation (default) or the SRE-style SLO "
                              "burn rate (window miss fraction over the "
                              "--target-miss-rate budget, which must be > 0; "
                              "see --burn-threshold/--burn-windows)")
    p_serve.add_argument("--burn-threshold", type=float, default=1.0,
                         help="burn-rate autoscaler grow trigger: both the "
                              "window burn and its trailing mean must reach "
                              "this multiple of the miss budget (default 1); "
                              "shrink needs both below half of it")
    p_serve.add_argument("--burn-windows", type=int, default=4,
                         help="trailing windows averaged into the slow burn "
                              "signal for --scale-trigger burn-rate "
                              "(default 4)")
    p_serve.add_argument("--capacity-per-device-rps", type=float, default=None,
                         help="calibrated per-device capacity (req/s), e.g. a "
                              "serving_load_curve knee divided by its fleet "
                              "size; the autoscaler then jumps straight to "
                              "ceil(arrival rate / capacity) devices")
    p_serve.add_argument("--report-json", default=None, metavar="PATH",
                         help="write the serving report (or the --figure curve) "
                              "as JSON to PATH, stamped with a provenance "
                              "block (repro version, argv, scenario)")
    p_serve.add_argument("--trace-json", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON timeline of the "
                              "run to PATH (open in Perfetto / "
                              "chrome://tracing, or feed to repro analyze); "
                              "simulated-clock, deterministic, identical "
                              "across modes, stamped with the "
                              "same provenance block as --report-json; with "
                              "--plan-capacity/--autoscale, the control-plane "
                              "probe/window timeline instead")
    p_serve.add_argument("--metrics-json", default=None, metavar="PATH",
                         help="write the run's metrics registry snapshot "
                              "(counters, gauges, latency histograms) as JSON "
                              "to PATH, stamped with the same provenance "
                              "block as --report-json; see "
                              "docs/observability.md for the catalogue")
    p_serve.add_argument("--alerts", action="store_true",
                         help="evaluate deterministic SLO burn-rate alerting "
                              "over the run on the simulated clock and print "
                              "the alert timeline (a fast/slow window pair "
                              "must both exceed --alert-burn to fire; see "
                              "docs/observability.md)")
    p_serve.add_argument("--alerts-json", default=None, metavar="PATH",
                         help="write the alert timeline as JSON to PATH "
                              "(implies alert evaluation), stamped with the "
                              "same provenance block as --report-json")
    p_serve.add_argument("--alert-fast-s", type=float, default=_ALERT_KNOBS["alert_fast_s"],
                         help="fast burn window for --alerts in simulated "
                              "seconds (default 5)")
    p_serve.add_argument("--alert-slow-s", type=float, default=_ALERT_KNOBS["alert_slow_s"],
                         help="slow burn window for --alerts in simulated "
                              "seconds (default 30)")
    p_serve.add_argument("--alert-burn", type=float, default=_ALERT_KNOBS["alert_burn"],
                         help="burn-rate threshold both windows must reach to "
                              "fire, as a multiple of the SLO miss budget "
                              "(default 1)")
    p_serve.add_argument("--alert-target", type=float, default=_ALERT_KNOBS["alert_target"],
                         help="fallback SLO miss-rate budget for tenants "
                              "whose SLO does not set target_miss_rate "
                              "(default 0.05)")
    p_serve.add_argument("--profile", action="store_true",
                         help="print a wall-clock profile of where the run's "
                              "host time went (calls, busy and self time per "
                              "layer, cache and memo counters); wall-clock "
                              "only — never affects simulated results")
    p_serve.add_argument("--figure", action="store_true",
                         help="sweep Poisson offered load over --figure-rates and "
                              "print the deadline-miss-vs-load curve instead of "
                              "one serving run (ignores --traffic/--queue-capacity)")
    p_serve.add_argument("--figure-rates", default="0.5,1,2,4,8",
                         help="comma-separated per-tenant req/s rates for --figure")
    p_serve.set_defaults(resolve=_resolve_serve)

    p_an = sub.add_parser(
        "analyze",
        help="attribute per-request critical-path latency from a serving trace",
    )
    p_an.add_argument("--trace-json", default=None, metavar="PATH",
                      help="analyze an exported serve --trace-json file "
                           "(Chrome trace-event JSON) instead of running "
                           "inline (the run flags are then ignored); the event "
                           "stream round-trips bit-exactly, so the attribution "
                           "matches the original run")
    p_an.add_argument("--report-json", default=None, metavar="PATH",
                      help="write the analysis report as JSON to PATH, "
                           "stamped with a provenance block (repro version, "
                           "argv, scenario)")
    p_an.add_argument("--figure", action="store_true",
                      help="print a stacked per-tenant latency-breakdown "
                           "chart (queue/gate/compute/send/recv/stall)")
    p_an.add_argument("--top", type=_positive_int, default=None, metavar="N",
                      help="show only the N hottest lanes in the bottleneck "
                           "ranking (default: all)")
    _add_serving_flags(p_an)
    # The inline run takes serve's defaults for the serve-only knobs
    # (unbounded queues, one slot, the default retry policy, no shedding).
    p_an.set_defaults(resolve=_resolve_analyze, queue_capacity=None, slots=None, **_CHURN_KNOBS)

    p_cmp = sub.add_parser("compare", help="compare all methods on a paper scenario")
    p_cmp.add_argument("--scenario", default="DB",
                       help="catalogue name (DA..DC, NA-nano.., LA..LD, homog-nano, "
                            "dynamic-nano) or gen:... spec; same resolution as plan "
                            "(Table-I groups default to 200 Mbps)")
    p_cmp.add_argument("--bandwidth", type=_positive_float, default=None,
                       help="re-shape every link of a catalogue --scenario to this "
                            "rate in Mbps; not applicable to gen: scenarios")
    p_cmp.add_argument("--model", default="vgg16", choices=model_zoo.list_models())
    p_cmp.add_argument("--episodes", type=int, default=150)
    _add_planner_width_flags(p_cmp)
    p_cmp.add_argument("--random-splits", type=int, default=20)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--profile", action="store_true",
                       help="print a wall-clock profile of the comparison run "
                            "(host time only)")
    p_cmp.set_defaults(resolve=_resolve_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Kept on the namespace so --report-json can stamp the exact invocation
    # into its provenance block (see _provenance).
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    # The one input boundary.  Only resolution runs inside it: a bad flag or
    # file exits 2 with one line on stderr, while an error raised once the
    # run has started is a bug and keeps its traceback.
    try:
        run = args.resolve(args)
    except KeyError as exc:
        # str(KeyError) is the repr of its message; unwrap it.
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not getattr(args, "profile", False):  # plan, compare and serve take --profile
        return run()
    from repro.obs import Profiler

    # --profile times the whole run step.  The profiler is kept on the
    # namespace so a run step can add the counters it records.
    args._profiler = Profiler()
    with args._profiler:
        code = run()
    print(args._profiler.format_table())
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
