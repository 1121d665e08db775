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
import math
import sys
from typing import List, Optional, Sequence, Tuple

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
    """argparse type: an integer >= 1 (slot counts, queue capacities)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _scenario_from_args(name: str, bandwidth: Optional[float]) -> Optional[Scenario]:
    """Resolve a ``--scenario`` argument, applying ``--bandwidth`` if given.

    Shared by ``plan`` and ``compare`` so a scenario name means the *same
    fleet* in both commands (catalogue Table-I groups default to 200 Mbps;
    reshape with ``--bandwidth``).  Prints an error and returns ``None`` on
    failure.
    """
    if name.startswith(GENERATOR_PREFIX) and bandwidth is not None:
        print(
            "note: --bandwidth does not apply to gen: scenarios; "
            "use the spec's bw= key (e.g. gen:n=8,bw=100)",
            file=sys.stderr,
        )
    try:
        scenario = resolve_scenario(name)
    except KeyError as exc:
        # str(KeyError) is the repr of its message; unwrap it.
        print(exc.args[0], file=sys.stderr)
        return None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    if bandwidth is not None and not name.startswith(GENERATOR_PREFIX):
        scenario = scenario.with_bandwidth(bandwidth)
    return scenario


def _cmd_plan(args: argparse.Namespace) -> int:
    model = model_zoo.get(args.model)
    if args.scenario is not None:
        scenario = _scenario_from_args(args.scenario, args.bandwidth)
        if scenario is None:
            return 2
    else:
        if args.bandwidth is not None:
            print(
                "note: --bandwidth only applies with --scenario; "
                "give per-device rates as type:mbps specs",
                file=sys.stderr,
            )
        scenario = Scenario.adhoc(_parse_device_specs(args.devices))
    devices, network = scenario.build(seed=args.seed)
    if scenario.name != "adhoc":
        print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    from repro.obs import NULL_PROFILER, Profiler

    profiler = Profiler() if args.profile else NULL_PROFILER
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
        planner.profiler = profiler
        plan = planner.plan(model, devices, network)
    else:
        with profiler.section("plan.search"):
            plan = BASELINE_REGISTRY[args.method]().plan(model, devices, network)
    print(plan.describe())
    with profiler.section("plan.evaluate"):
        result = PlanEvaluator(devices, network).evaluate(plan)
    print(f"predicted latency: {result.end_to_end_ms:.1f} ms ({result.ips:.2f} IPS)")
    if profiler.enabled:
        print(profiler.format_table())
    if args.output:
        path = save_plan(plan, args.output)
        print(f"plan written to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.runtime.plan import DistributionPlan
    from repro.runtime.serialization import plan_from_dict

    data = json.loads(Path(args.plan).read_text())
    if args.scenario is not None:
        # Re-evaluate the saved strategy on a fleet resolved exactly as
        # plan/compare resolve it (catalogue name or gen: spec, --bandwidth
        # reshaping catalogue links).  Device types must match the plan.
        scenario = _scenario_from_args(args.scenario, args.bandwidth)
        if scenario is None:
            return 2
        plan = plan_from_dict(data)
        devices, network = scenario.build(seed=args.seed)
        if [d.type_name for d in devices] != [d.type_name for d in plan.devices]:
            print(
                f"scenario {scenario.name!r} fleet "
                f"({[d.type_name for d in devices]}) does not match the plan's "
                f"devices ({[d.type_name for d in plan.devices]})",
                file=sys.stderr,
            )
            return 2
        plan = DistributionPlan(
            plan.model,
            devices,
            plan.boundaries,
            plan.decisions,
            head_device=plan.head_device,
            method=plan.method,
        )
        print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    else:
        if args.bandwidth is not None:
            for entry in data["devices"]:
                entry["bandwidth_mbps"] = float(args.bandwidth)
        plan = plan_from_dict(data)
        devices = plan.devices
        network = NetworkModel.constant_from_devices(devices)
    result = PlanEvaluator(devices, network).evaluate(plan)
    summary = evaluation_to_dict(result)
    print(f"method: {plan.method}  model: {plan.model.name}")
    print(f"latency: {summary['end_to_end_ms']:.1f} ms   IPS: {summary['ips']:.2f}")
    print(f"max compute: {summary['max_compute_ms']:.1f} ms   "
          f"max transmission: {summary['max_transmission_ms']:.1f} ms")
    for device, compute in zip(devices, summary["per_device_compute_ms"]):
        print(f"  {device.device_id:12s} compute {compute:8.1f} ms")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs import NULL_PROFILER, Profiler

    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    if scenario is None:
        return 2
    profiler = Profiler() if args.profile else NULL_PROFILER
    harness = ExperimentHarness(
        HarnessConfig(
            osds_episodes=args.episodes,
            num_random_splits=args.random_splits,
            seed=args.seed,
            osds_episode_batch=args.episode_batch,
            osds_policy_refresh=args.policy_refresh,
        )
    )
    with profiler.section("compare.run"):
        results = harness.compare(scenario, methods=ALL_METHODS, model_name=args.model)
    print(
        format_ips_table({scenario.name: harness.ips_table(results)}, methods=list(ALL_METHODS))
    )
    print(f"DistrEdge speedup over best baseline: "
          f"{harness.speedup_over_best_baseline(results):.2f}x")
    if profiler.enabled:
        print(profiler.format_table())
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
    import json
    from pathlib import Path

    if provenance is not None and isinstance(payload, dict):
        payload = {**payload, "provenance": provenance}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"report written to {path}")


def _cmd_serve_figure(args: argparse.Namespace, parsed, deadlines, weights, policy) -> int:
    """The ``serve --figure`` path: deadline-miss vs offered-load sweep."""
    from repro.experiments.figures import serving_load_curve
    from repro.experiments.reporting import format_series

    if args.mode != "batched":
        print(f"note: --figure always sweeps in batched mode; --mode {args.mode} ignored",
              file=sys.stderr)
    models = {model_name for _, model_name in parsed}
    if len(models) > 1:
        print(
            f"--figure sweeps one model across rates; tenants name {sorted(models)}",
            file=sys.stderr,
        )
        return 2
    try:
        rates = [float(part) for part in args.figure_rates.split(",") if part.strip()]
    except ValueError:
        print(f"--figure-rates {args.figure_rates!r} contains a non-number", file=sys.stderr)
        return 2
    if not rates or any(rate <= 0 for rate in rates):
        print(f"--figure-rates must be positive rates, got {args.figure_rates!r}", file=sys.stderr)
        return 2
    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    if scenario is None:
        return 2
    harness = ExperimentHarness(HarnessConfig(osds_episodes=args.episodes, seed=args.seed))
    curve = serving_load_curve(
        harness,
        scenario,
        rates_rps=rates,
        methods=[method for method, _ in parsed],
        model_name=next(iter(models)),
        duration_s=args.duration,
        deadline_ms=deadlines,
        policy=policy,
        seed=args.seed,
        weight=weights,
    )
    print(format_series(curve, title="deadline-miss rate vs offered load"))
    if args.report_json:
        _write_report_json(args.report_json, curve, provenance=_provenance(args))
    return 0


def _parse_fleet_range(spec: str) -> Tuple[int, int]:
    """Parse a ``MIN:MAX`` fleet-size range."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"--fleet-range must be MIN:MAX, got {spec!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--fleet-range must be two integers MIN:MAX, got {spec!r}")
    return lo, hi


def _control_plane_inputs(args: argparse.Namespace, parsed, traffics):
    """Shared validation for --plan-capacity / --autoscale.

    Both resize the fleet between runs, so they need a seeded ``gen:``
    scenario spec (catalogue fleets have a fixed size) and a single model
    across tenants (one :meth:`ExperimentHarness.serve_scenario` call).
    Returns ``(methods, model_name, traffic_list)`` or ``None`` after
    printing the reason to stderr.
    """
    if not args.scenario.startswith(GENERATOR_PREFIX):
        print(
            f"--plan-capacity/--autoscale resize the fleet, so --scenario must "
            f"be a seeded {GENERATOR_PREFIX!r} spec (e.g. gen:n=2,seed=3); "
            f"got {args.scenario!r}",
            file=sys.stderr,
        )
        return None
    models = {model_name for _, model_name in parsed}
    if len(models) > 1:
        print(
            f"--plan-capacity/--autoscale serve one model across fleet sizes; "
            f"tenants name {sorted(models)}",
            file=sys.stderr,
        )
        return None
    try:
        traffic_list = [
            _resolve_traffic_or_poisson(spec, args.rate, args.seed + i)
            for i, spec in enumerate(traffics)
        ]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    return [m for m, _ in parsed], next(iter(models)), traffic_list


def _fault_policies_from_args(args: argparse.Namespace):
    """Resolve ``--churn``/``--retry-*``/``--degrade-min-live`` into policies.

    Returns ``(faults, retry, degradation)`` — all ``None`` without
    ``--churn`` — or ``None`` after printing the reason to stderr when the
    combination is invalid (mirroring the ``--contention`` gate: the retry
    and degradation knobs require ``--churn``).
    """
    from repro.runtime.faults import DegradationPolicy, RetryPolicy, parse_churn_spec

    if args.churn is None:
        if (
            args.retry_max != 3
            or args.retry_backoff_ms != 50.0
            or args.retry_jitter_ms != 10.0
            or args.retry_timeout_ms is not None
            or args.degrade_min_live is not None
        ):
            print(
                "--retry-max/--retry-backoff-ms/--retry-jitter-ms/"
                "--retry-timeout-ms/--degrade-min-live model fleet churn; "
                "pass --churn to enable them",
                file=sys.stderr,
            )
            return None
        return (None, None, None)
    try:
        faults = parse_churn_spec(args.churn)
        retry = RetryPolicy(
            max_attempts=args.retry_max,
            backoff_ms=args.retry_backoff_ms,
            jitter_ms=args.retry_jitter_ms,
            timeout_ms=args.retry_timeout_ms,
            seed=args.seed,
        )
        degradation = (
            DegradationPolicy(min_live_fraction=args.degrade_min_live)
            if args.degrade_min_live is not None
            else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    return (faults, retry, degradation)


def _resolve_traffic_or_poisson(spec, rate: float, seed: int):
    """A ``traffic:`` spec, or the default Poisson process when absent."""
    from repro.serving import PoissonArrivals, resolve_traffic

    return resolve_traffic(spec) if spec is not None else PoissonArrivals(
        rate_rps=rate, seed=seed
    )


def _policy_from_args(args: argparse.Namespace):
    """Resolve ``--contention`` and its knobs into a cluster policy.

    Returns ``(True, policy_or_None)`` — ``None`` without ``--contention`` —
    or ``(False, None)`` after printing the reason to stderr (the contention
    knobs require ``--contention``, mirroring the ``--churn`` gate).  Shared
    by ``serve`` and ``analyze`` so the same flags resolve identically.
    """
    from repro.serving import ClusterPolicy

    if args.contention:
        try:
            return True, ClusterPolicy(
                discipline=args.discipline,
                max_inflight=args.max_inflight,
                admission=args.admission,
                on_predicted_miss=args.on_predicted_miss,
                window_ms=args.window_ms,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return False, None
    if (
        args.discipline != "fifo"
        or args.max_inflight is not None
        or args.weight
        or args.admission != "none"
        or args.window_ms is not None
    ):
        print(
            "--discipline/--max-inflight/--weight/--admission/--window-ms model "
            "shared-fleet contention; pass --contention to enable it",
            file=sys.stderr,
        )
        return False, None
    return True, None


def _build_tenants(
    args: argparse.Namespace, parsed, devices, network,
    traffics, deadlines, capacities, weights, slot_counts,
):
    """Plan each ``--tenant`` method on the fleet and wrap it in a TenantSpec.

    Returns the tenant list, or ``None`` after printing a bad ``--traffic``
    spec to stderr.  Shared by ``serve`` and ``analyze``.
    """
    from repro.serving import SLO, PoissonArrivals, TenantSpec, resolve_traffic

    tenants = []
    methods_only = [m for m, _ in parsed]
    for i, (method, model_name) in enumerate(parsed):
        model = model_zoo.get(model_name)
        if method == "distredge":
            planner = DistrEdge(
                DistrEdgeConfig(
                    osds=OSDSConfig(max_episodes=args.episodes, seed=args.seed),
                    seed=args.seed,
                )
            )
            plan = planner.plan(model, devices, network)
        else:
            plan = BASELINE_REGISTRY[method]().plan(model, devices, network)
        try:
            traffic = (
                resolve_traffic(traffics[i])
                if traffics[i] is not None
                else PoissonArrivals(rate_rps=args.rate, seed=args.seed + i)
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return None
        # Suffix only on duplicate methods (same rule as
        # ExperimentHarness.serve_scenario, so reports correlate).
        tenants.append(
            TenantSpec(
                name=method if methods_only.count(method) == 1 else f"{method}-{i}",
                plan=plan,
                traffic=traffic,
                slo=SLO(deadline_ms=deadlines[i]),
                queue_capacity=capacities[i],
                weight=weights[i],
                slots=slot_counts[i],
            )
        )
    return tenants


def _cmd_serve_plan_capacity(
    args: argparse.Namespace, parsed, traffics, deadlines, weights, policy,
    faults, retry, degradation,
) -> int:
    """The ``serve --plan-capacity`` path: min fleet size for a miss target."""
    from repro.experiments.reporting import format_capacity_plan
    from repro.serving.control import CapacityPlanConfig, CapacityPlanner

    inputs = _control_plane_inputs(args, parsed, traffics)
    if inputs is None:
        return 2
    methods, model_name, traffic_list = inputs
    try:
        lo, hi = _parse_fleet_range(args.fleet_range)
        config = CapacityPlanConfig(
            min_devices=lo, max_devices=hi, target_miss_rate=args.target_miss_rate
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    harness = ExperimentHarness(HarnessConfig(osds_episodes=args.episodes, seed=args.seed))
    probe = harness.capacity_probe_runner(
        args.scenario,
        methods=methods,
        model_name=model_name,
        traffic=traffic_list,
        deadline_ms=deadlines,
        queue_capacity=None,
        duration_s=args.duration,
        policy=policy,
        weight=weights,
        slots=args.slots or 1,
        faults=faults,
        retry=retry,
        degradation=degradation,
    )
    tracer = None
    if args.trace_json:
        from repro.obs import Tracer

        tracer = Tracer()
    planner = CapacityPlanner(probe, config, tracer=tracer)
    plan = planner.plan()
    print(format_capacity_plan(plan, title="capacity plan"))
    if tracer is not None:
        tracer.write_chrome(args.trace_json, provenance=_provenance(args))
        print(f"trace written to {args.trace_json}")
    if args.report_json:
        _write_report_json(args.report_json, plan.to_dict(), provenance=_provenance(args))
    return 0


def _cmd_serve_autoscale(
    args: argparse.Namespace, parsed, traffics, deadlines, weights, policy,
    faults, retry, degradation,
) -> int:
    """The ``serve --autoscale`` path: windowed fleet resizing."""
    from repro.experiments.reporting import format_autoscale_report
    from repro.serving.control import AutoscalerConfig, FleetAutoscaler

    inputs = _control_plane_inputs(args, parsed, traffics)
    if inputs is None:
        return 2
    methods, model_name, traffic_list = inputs
    try:
        lo, hi = _parse_fleet_range(args.fleet_range)
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
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    harness = ExperimentHarness(HarnessConfig(osds_episodes=args.episodes, seed=args.seed))
    run_window = harness.autoscale_window_runner(
        args.scenario,
        window_s=args.window_s,
        num_windows=args.windows,
        methods=methods,
        model_name=model_name,
        traffic=traffic_list,
        deadline_ms=deadlines,
        queue_capacity=None,
        policy=policy,
        weight=weights,
        slots=args.slots or 1,
        faults=faults,
        retry=retry,
        degradation=degradation,
    )
    tracer = None
    if args.trace_json:
        from repro.obs import Tracer

        tracer = Tracer()
    report = FleetAutoscaler(run_window, config, tracer=tracer).run(
        args.windows, initial_devices=lo
    )
    print(format_autoscale_report(report, title="autoscaled serving"))
    if tracer is not None:
        tracer.write_chrome(args.trace_json, provenance=_provenance(args))
        print(f"trace written to {args.trace_json}")
    if args.report_json:
        _write_report_json(args.report_json, report.to_dict(), provenance=_provenance(args))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.batch import BatchPlanEvaluator
    from repro.serving import ServingSimulator, run_with_parity
    from repro.experiments.reporting import (
        format_fault_report,
        format_fleet_table,
        format_serving_table,
    )
    from repro.runtime.faults import resolve_churn

    refs = args.tenants or ["coedge", "offload"]
    try:
        parsed = [_parse_tenant_ref(ref, args.model) for ref in refs]
        traffics = _broadcast(args.traffic, len(parsed), None, "--traffic")
        deadlines = _broadcast(args.deadline_ms, len(parsed), 1000.0, "--deadline-ms")
        capacities = _broadcast(args.queue_capacity, len(parsed), None, "--queue-capacity")
        weights = _broadcast(args.weight, len(parsed), 1.0, "--weight")
        slot_counts = [int(s) for s in _broadcast(args.slots, len(parsed), 1, "--slots")]
        if any(w <= 0 for w in weights):
            raise ValueError(f"--weight values must be > 0, got {weights}")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ok, policy = _policy_from_args(args)
    if not ok:
        return 2
    fault_args = _fault_policies_from_args(args)
    if fault_args is None:
        return 2
    faults, retry, degradation = fault_args
    alert_monitor = None
    if args.alerts or args.alerts_json:
        from repro.obs.slo import BurnRateRule, SLOMonitor

        try:
            rule = BurnRateRule(
                "burn", args.alert_fast_s, args.alert_slow_s, args.alert_burn
            )
            alert_monitor = SLOMonitor(rules=(rule,), default_target=args.alert_target)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    elif (
        args.alert_fast_s != 5.0
        or args.alert_slow_s != 30.0
        or args.alert_burn != 1.0
        or args.alert_target != 0.05
    ):
        print(
            "--alert-fast-s/--alert-slow-s/--alert-burn/--alert-target tune "
            "SLO burn-rate alerting; pass --alerts or --alerts-json to "
            "enable it",
            file=sys.stderr,
        )
        return 2
    if args.plan_capacity or args.autoscale:
        if args.plan_capacity and args.autoscale:
            print("--plan-capacity and --autoscale are mutually exclusive",
                  file=sys.stderr)
            return 2
        if args.metrics_json or args.profile or alert_monitor is not None:
            print(
                "--metrics-json/--profile/--alerts instrument a single "
                "serving run; --plan-capacity/--autoscale run many (use "
                "--trace-json for the control-plane timeline)",
                file=sys.stderr,
            )
            return 2
        if policy is None:
            print(
                "--plan-capacity/--autoscale size fleets against contended "
                "serving; pass --contention (typically with "
                "--admission predictive)",
                file=sys.stderr,
            )
            return 2
        if args.plan_capacity:
            return _cmd_serve_plan_capacity(
                args, parsed, traffics, deadlines, weights, policy,
                faults, retry, degradation,
            )
        return _cmd_serve_autoscale(
            args, parsed, traffics, deadlines, weights, policy,
            faults, retry, degradation,
        )
    if args.figure:
        if args.trace_json or args.metrics_json or args.profile or alert_monitor is not None:
            print(
                "--trace-json/--metrics-json/--profile/--alerts instrument a "
                "single serving run; --figure sweeps many (drop --figure or "
                "the observability flags)",
                file=sys.stderr,
            )
            return 2
        if faults is not None:
            print(
                "--figure sweeps offered load on an immortal fleet; use "
                "repro.experiments.figures.degradation_curve for the "
                "crash-count sweep",
                file=sys.stderr,
            )
            return 2
        return _cmd_serve_figure(args, parsed, deadlines, weights, policy)
    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    if scenario is None:
        return 2
    if faults is not None:
        # Resolve against the fleet up front so a bad device id in the spec
        # fails with exit code 2 instead of a traceback mid-run.
        try:
            faults = resolve_churn(faults, scenario.num_devices)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    devices, network = scenario.build(seed=args.seed)
    evaluator = BatchPlanEvaluator(devices, network)
    print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    tracer = metrics = profiler = None
    if args.trace_json or args.metrics_json or args.profile:
        from repro.obs import MetricsRegistry, Profiler, Tracer, record_serving_report

        if args.trace_json:
            tracer = Tracer()
        if args.metrics_json:
            metrics = MetricsRegistry()
        if args.profile:
            profiler = Profiler()
            evaluator.profiler = profiler
    tenants = _build_tenants(
        args, parsed, devices, network,
        traffics, deadlines, capacities, weights, slot_counts,
    )
    if tenants is None:
        return 2
    if args.mode == "parity":
        reference = PlanEvaluator(devices, network)
        report = run_with_parity(
            evaluator,
            reference,
            tenants,
            duration_s=args.duration,
            policy=policy,
            faults=faults,
            retry=retry,
            degradation=degradation,
            tracer=tracer,
        )
        print("parity: batched loop is bit-identical to the reference loop")
        if metrics is not None:
            # run_with_parity returns the committed report; derive the
            # registry from it exactly as ServingSimulator.run would.
            record_serving_report(metrics, report)
    else:
        simulator = ServingSimulator(evaluator)
        if profiler is not None:
            simulator.profiler = profiler
        report = simulator.run(
            tenants,
            duration_s=args.duration,
            mode=args.mode,
            policy=policy,
            faults=faults,
            retry=retry,
            degradation=degradation,
            tracer=tracer,
            metrics=metrics,
        )
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
        import json
        from pathlib import Path

        snapshot = {**metrics.snapshot(), "provenance": _provenance(args)}
        Path(args.metrics_json).write_text(
            json.dumps(snapshot, indent=2) + "\n"
        )
        print(f"metrics written to {args.metrics_json}")
    if profiler is not None:
        print(profiler.format_table())
    if args.report_json:
        _write_report_json(args.report_json, report.to_dict(), provenance=_provenance(args))
    return 0


def _analyze_inline_run(args: argparse.Namespace):
    """Run one traced batched serving run for ``repro analyze``.

    Returns the :class:`~repro.obs.analysis.AnalysisReport`, or an ``int``
    exit code after printing a CLI error to stderr.
    """
    from repro.obs import Tracer
    from repro.obs.analysis import analyze_serving
    from repro.runtime.batch import BatchPlanEvaluator
    from repro.runtime.faults import RetryPolicy, parse_churn_spec, resolve_churn
    from repro.serving import ServingSimulator

    refs = args.tenants or ["coedge", "offload"]
    try:
        parsed = [_parse_tenant_ref(ref, args.model) for ref in refs]
        traffics = _broadcast(args.traffic, len(parsed), None, "--traffic")
        deadlines = _broadcast(args.deadline_ms, len(parsed), 1000.0, "--deadline-ms")
        weights = _broadcast(args.weight, len(parsed), 1.0, "--weight")
        if any(w <= 0 for w in weights):
            raise ValueError(f"--weight values must be > 0, got {weights}")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ok, policy = _policy_from_args(args)
    if not ok:
        return 2
    scenario = _scenario_from_args(args.scenario, args.bandwidth)
    if scenario is None:
        return 2
    faults = retry = None
    if args.churn is not None:
        try:
            faults = resolve_churn(parse_churn_spec(args.churn), scenario.num_devices)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        retry = RetryPolicy(seed=args.seed)
    devices, network = scenario.build(seed=args.seed)
    print(f"scenario: {scenario.name} ({scenario.num_devices} providers)")
    tenants = _build_tenants(
        args, parsed, devices, network,
        traffics, deadlines, [None] * len(parsed), weights, [1] * len(parsed),
    )
    if tenants is None:
        return 2
    tracer = Tracer()
    report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        tenants,
        duration_s=args.duration,
        policy=policy,
        faults=faults,
        retry=retry,
        tracer=tracer,
    )
    return analyze_serving(report, tracer)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import (
        format_attribution_table,
        format_bottleneck_table,
        format_breakdown_chart,
    )
    from repro.obs.analysis import AnalysisError, analyze_chrome

    if args.trace_json is not None:
        import json
        from pathlib import Path

        try:
            data = json.loads(Path(args.trace_json).read_text())
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"{args.trace_json} is not valid JSON: {exc}", file=sys.stderr)
            return 2
        try:
            analysis = analyze_chrome(data)
        except (AnalysisError, ValueError) as exc:
            print(
                f"{args.trace_json} is not an analyzable serving trace: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        result = _analyze_inline_run(args)
        if isinstance(result, int):
            return result
        analysis = result
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
    p_plan.add_argument("--episode-batch", type=int, default=8,
                        help="OSDS episodes rolled out in lockstep per vectorised "
                             "round (execution width only; results are bit-identical "
                             "at any value, 1 = scalar loop). Rounds never cross a "
                             "policy-refresh boundary, so widths beyond "
                             "--policy-refresh need that knob raised too")
    p_plan.add_argument("--policy-refresh", type=int, default=8,
                        help="episodes between OSDS acting-policy snapshot refreshes "
                             "(semantic: changing it changes which policy explores)")
    p_plan.add_argument("--alpha", type=float, default=0.75)
    p_plan.add_argument("--random-splits", type=int, default=30)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--output", default=None, help="write the plan to this JSON file")
    p_plan.add_argument("--profile", action="store_true",
                        help="print a wall-clock profile of the planning search "
                             "and final evaluation (host time only)")
    p_plan.set_defaults(func=_cmd_plan)

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
    p_eval.set_defaults(func=_cmd_evaluate)

    p_serve = sub.add_parser(
        "serve", help="simulate multi-tenant open-loop serving on one fleet"
    )
    p_serve.add_argument("--scenario", default="DB",
                         help="catalogue name or gen: spec (same resolution as "
                              "plan/compare)")
    p_serve.add_argument("--bandwidth", type=_positive_float, default=None,
                         help="re-shape every link of a catalogue --scenario (Mbps)")
    p_serve.add_argument("--tenant", action="append", dest="tenants",
                         metavar="METHOD[@MODEL]",
                         help="repeatable tenant spec, e.g. coedge@vgg16 "
                              "(model defaults to --model); default: "
                              "coedge + offload")
    p_serve.add_argument("--model", default="vgg16", choices=model_zoo.list_models(),
                         help="default model for --tenant entries without @MODEL")
    p_serve.add_argument("--traffic", action="append", default=None,
                         help="repeatable traffic: spec, one per tenant or one "
                              "shared (e.g. traffic:poisson,rate=5 or "
                              "traffic:mmpp,low=1,high=20); default: Poisson at "
                              "--rate with per-tenant seeds")
    p_serve.add_argument("--rate", type=_positive_float, default=2.0,
                         help="default Poisson arrival rate (req/s) when no "
                              "--traffic is given")
    p_serve.add_argument("--deadline-ms", action="append", type=_positive_float, default=None,
                         help="repeatable per-tenant SLO deadline (ms); default 1000")
    p_serve.add_argument("--queue-capacity", action="append", type=_positive_int, default=None,
                         help="repeatable per-tenant admission bound (waiting "
                              "requests); default unbounded")
    p_serve.add_argument("--duration", type=_positive_float, default=30.0,
                         help="open-loop arrival horizon (simulated seconds)")
    p_serve.add_argument("--mode", choices=["batched", "reference", "parity"],
                         default="batched",
                         help="event loop: batched array engine (default), "
                              "naive per-request reference, or parity (run "
                              "both and assert bit-identical)")
    p_serve.add_argument("--episodes", type=int, default=50,
                         help="OSDS episodes for distredge tenants")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--contention", action="store_true",
                         help="model shared-fleet lane contention: concurrent "
                              "requests queue on per-device compute/send/recv "
                              "lanes instead of each seeing an idle fleet")
    p_serve.add_argument("--discipline", choices=["fifo", "deadline", "wfq"],
                         default="fifo",
                         help="cross-tenant dispatch order under --contention: "
                              "release-time FIFO, least deadline slack first, "
                              "or weighted fair queueing (see --weight)")
    p_serve.add_argument("--max-inflight", type=int, default=None,
                         help="cluster-wide cap on concurrently in-flight "
                              "requests under --contention (admission gate); "
                              "default unlimited")
    p_serve.add_argument("--weight", action="append", type=float, default=None,
                         help="repeatable per-tenant WFQ fair-share weight "
                              "(with --contention --discipline wfq); default 1")
    p_serve.add_argument("--slots", action="append", type=_positive_int, default=None,
                         help="repeatable per-tenant service-slot count "
                              "(within-tenant concurrency); default 1, the "
                              "paper's one-image-in-flight protocol")
    p_serve.add_argument("--admission", choices=["none", "predictive"],
                         default="none",
                         help="admission control under --contention: "
                              "'predictive' asks the contention evaluator for "
                              "each request's completion at release time and "
                              "intercepts predicted SLO misses before they "
                              "occupy the fleet")
    p_serve.add_argument("--on-predicted-miss", choices=["reject", "requeue"],
                         default="reject",
                         help="what --admission predictive does with an "
                              "intercepted request: deny it (counted per "
                              "tenant) or defer it to the fleet's next "
                              "lane-free event and re-predict")
    p_serve.add_argument("--churn", default=None, metavar="SPEC",
                         help="inject seeded fleet churn from a churn: spec, "
                              "e.g. churn:events=crash:0@500;join:0@2000 or "
                              "churn:crashes=2,seed=7; crashes kill in-flight "
                              "requests, which retry on a strategy replanned "
                              "around the surviving devices")
    p_serve.add_argument("--retry-max", type=int, default=3,
                         help="retry attempts per request under --churn before "
                              "it is abandoned (default 3)")
    p_serve.add_argument("--retry-backoff-ms", type=float, default=50.0,
                         help="base exponential-backoff delay between retry "
                              "attempts under --churn (default 50)")
    p_serve.add_argument("--retry-jitter-ms", type=float, default=10.0,
                         help="seeded uniform jitter added to each backoff "
                              "delay under --churn (default 10)")
    p_serve.add_argument("--retry-timeout-ms", type=float, default=None,
                         help="per-request wall-clock budget across all retry "
                              "attempts under --churn; default unbounded")
    p_serve.add_argument("--degrade-min-live", type=float, default=None,
                         help="graceful degradation under --churn: while the "
                              "live fleet fraction is below this threshold, "
                              "shed arrivals of the lowest-weight tenants "
                              "(deterministically) instead of queueing them; "
                              "default: no shedding")
    p_serve.add_argument("--window-ms", type=float, default=None,
                         help="attach a windowed fleet-load time series "
                              "(busy/wait/inflight per device per window of "
                              "this width) to the contended run's report")
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
    p_serve.add_argument("--alert-fast-s", type=float, default=5.0,
                         help="fast burn window for --alerts in simulated "
                              "seconds (default 5)")
    p_serve.add_argument("--alert-slow-s", type=float, default=30.0,
                         help="slow burn window for --alerts in simulated "
                              "seconds (default 30)")
    p_serve.add_argument("--alert-burn", type=float, default=1.0,
                         help="burn-rate threshold both windows must reach to "
                              "fire, as a multiple of the SLO miss budget "
                              "(default 1)")
    p_serve.add_argument("--alert-target", type=float, default=0.05,
                         help="fallback SLO miss-rate budget for tenants "
                              "whose SLO does not set target_miss_rate "
                              "(default 0.05)")
    p_serve.add_argument("--profile", action="store_true",
                         help="print a wall-clock profile of where the run's "
                              "host time went (evaluator sweeps, cache hit "
                              "rates); wall-clock only — never affects "
                              "simulated results")
    p_serve.add_argument("--figure", action="store_true",
                         help="sweep Poisson offered load over --figure-rates and "
                              "print the deadline-miss-vs-load curve instead of "
                              "one serving run (ignores --traffic/--queue-capacity)")
    p_serve.add_argument("--figure-rates", default="0.5,1,2,4,8",
                         help="comma-separated per-tenant req/s rates for --figure")
    p_serve.set_defaults(func=_cmd_serve)

    p_an = sub.add_parser(
        "analyze",
        help="attribute per-request critical-path latency from a serving trace",
    )
    p_an.add_argument("--trace-json", default=None, metavar="PATH",
                      help="analyze an exported serve --trace-json file "
                           "(Chrome trace-event JSON) instead of running "
                           "inline; the event stream round-trips bit-exactly, "
                           "so the attribution matches the original run")
    p_an.add_argument("--report-json", default=None, metavar="PATH",
                      help="write the analysis report as JSON to PATH, "
                           "stamped with a provenance block (repro version, "
                           "argv, scenario)")
    p_an.add_argument("--figure", action="store_true",
                      help="print a stacked per-tenant latency-breakdown "
                           "chart (queue/gate/compute/send/recv/stall)")
    p_an.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N hottest lanes in the bottleneck "
                           "ranking (default: all)")
    # Inline-run flags spell exactly like `repro serve`, so a serve
    # invocation becomes an analysis by swapping the subcommand.
    p_an.add_argument("--scenario", default="DB",
                      help="catalogue name or gen: spec for an inline run "
                           "(same resolution as serve); ignored with "
                           "--trace-json")
    p_an.add_argument("--bandwidth", type=_positive_float, default=None,
                      help="re-shape every link of a catalogue --scenario (Mbps)")
    p_an.add_argument("--tenant", action="append", dest="tenants",
                      metavar="METHOD[@MODEL]",
                      help="repeatable tenant spec as in serve; default: "
                           "coedge + offload")
    p_an.add_argument("--model", default="vgg16", choices=model_zoo.list_models(),
                      help="default model for --tenant entries without @MODEL")
    p_an.add_argument("--traffic", action="append", default=None,
                      help="repeatable traffic: spec as in serve; default: "
                           "Poisson at --rate with per-tenant seeds")
    p_an.add_argument("--rate", type=_positive_float, default=2.0,
                      help="default Poisson arrival rate (req/s)")
    p_an.add_argument("--deadline-ms", action="append", type=_positive_float, default=None,
                      help="repeatable per-tenant SLO deadline (ms); default 1000")
    p_an.add_argument("--duration", type=_positive_float, default=30.0,
                      help="open-loop arrival horizon (simulated seconds)")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--episodes", type=int, default=50,
                      help="OSDS episodes for distredge tenants")
    p_an.add_argument("--contention", action="store_true",
                      help="model shared-fleet lane contention, as in serve "
                           "(lane attribution needs it to show waiting)")
    p_an.add_argument("--discipline", choices=["fifo", "deadline", "wfq"],
                      default="fifo",
                      help="cross-tenant dispatch order under --contention")
    p_an.add_argument("--max-inflight", type=int, default=None,
                      help="cluster-wide in-flight cap under --contention "
                           "(gate wait shows up as the 'gate' segment)")
    p_an.add_argument("--weight", action="append", type=float, default=None,
                      help="repeatable per-tenant WFQ weight (with "
                           "--contention --discipline wfq); default 1")
    p_an.add_argument("--admission", choices=["none", "predictive"],
                      default="none",
                      help="admission control under --contention, as in serve")
    p_an.add_argument("--on-predicted-miss", choices=["reject", "requeue"],
                      default="reject",
                      help="predictive-admission action, as in serve")
    p_an.add_argument("--window-ms", type=float, default=None,
                      help="attach a windowed fleet-load series to the inline "
                           "run's report, as in serve")
    p_an.add_argument("--churn", default=None, metavar="SPEC",
                      help="inject seeded fleet churn (churn: spec, as in "
                           "serve) into the inline run; retries use the "
                           "default policy, and their backoff shows up in "
                           "the per-tenant backoff_ms column")
    p_an.set_defaults(func=_cmd_analyze)

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
    p_cmp.add_argument("--episode-batch", type=int, default=8,
                       help="OSDS episodes rolled out in lockstep per vectorised round "
                            "(capped at --policy-refresh)")
    p_cmp.add_argument("--policy-refresh", type=int, default=8,
                       help="episodes between OSDS acting-policy snapshot refreshes")
    p_cmp.add_argument("--random-splits", type=int, default=20)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--profile", action="store_true",
                       help="print a wall-clock profile of the comparison run "
                            "(host time only)")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Kept on the namespace so --report-json can stamp the exact invocation
    # into its provenance block (see _provenance).
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
