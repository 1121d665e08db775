"""Serving-loop benchmark: requests/sec, epoch-batched vs naive reference.

The serving subsystem's gate: a 4-tenant open-loop workload on a generated
32-device fleet (the tentpole shape — several methods' plans sharing one
Table-III-scale cluster under Poisson traffic) is driven once through the
naive per-request reference loop (one scalar
:meth:`~repro.runtime.evaluator.PlanEvaluator.evaluate` call per request)
and once through the batched loop — the array engine of
:mod:`repro.serving.engine` over :class:`~repro.runtime.batch.BatchPlanEvaluator`
(NumPy column commits, speculation windows and signature-grouped
``evaluate_plans`` epochs).

The gate asserts the batched event loop serves the workload at least
``MIN_SPEEDUP`` (5x) faster in wall time, and that the two loops' reports
are bit-identical (the parity contract, re-checked here on the gated
workload itself — the array engine's only bit-identity check on a
generated 32-device fleet).  Like the OSDS gate, nothing here needs multiple cores,
so the gate is enforced everywhere.  Numbers
land in ``BENCH_serve.json`` via the shared :mod:`_gate` bookkeeping.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _gate import record_gate_result

from repro.baselines import BASELINE_REGISTRY
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec
from repro.serving.simulator import assert_reports_equal

NUM_DEVICES = 32
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 5.0
DURATION_S = 10.0
DEADLINE_MS = 500.0
ROUNDS = 3
MIN_SPEEDUP = 5.0
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def _make_tenants(model, devices, network):
    tenants = []
    for i, method in enumerate(TENANT_METHODS):
        plan = BASELINE_REGISTRY[method]().plan(model, devices, network)
        tenants.append(
            TenantSpec(
                name=method,
                plan=plan,
                traffic=PoissonArrivals(rate_rps=RATE_RPS, seed=100 + i),
                slo=SLO(deadline_ms=DEADLINE_MS),
            )
        )
    return tenants


def _best_of(fn, rounds=ROUNDS):
    best_t, report = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        report = fn()
        best_t = min(best_t, time.perf_counter() - start)
    return best_t, report


def test_bench_serve_event_loop(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    # Naive per-request loop: fresh scalar evaluator each round (the
    # pre-serving behaviour — per-request Python scheduling, no plan LRU).
    def run_reference():
        simulator = ServingSimulator(PlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="reference")

    # Batched loop: fresh batch evaluator each round, so the measured
    # speedup includes the cold first epoch (no cross-round cache carry).
    def run_batched():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="batched")

    t_reference, reference_report = _best_of(run_reference)
    t_batched, batched_report = _best_of(run_batched)

    assert_reports_equal(batched_report, reference_report)
    speedup = t_reference / t_batched
    completed = batched_report.total_completed

    rows = record_gate_result(
        BENCH_PATH,
        {
            "scenario": scenario.name,
            "model": MODEL_NAME,
            "num_devices": NUM_DEVICES,
            "tenants": list(TENANT_METHODS),
            "arrival_rate_rps_per_tenant": RATE_RPS,
            "duration_s": DURATION_S,
            "requests_completed": completed,
            "epochs": batched_report.epochs,
            "rounds": ROUNDS,
            "reference_requests_per_s": completed / t_reference,
            "batched_requests_per_s": completed / t_batched,
            "speedup_batched_over_reference": speedup,
            "bit_identical": True,  # assert_reports_equal above would have raised
            "deadline_miss_rate": batched_report.deadline_miss_rate,
            "min_speedup_gate": MIN_SPEEDUP,
        },
    )
    print(f"\nBENCH_serve: {json.dumps(rows, indent=2)}")

    benchmark.pedantic(run_batched, rounds=1, iterations=1, warmup_rounds=0)

    assert speedup >= MIN_SPEEDUP, (
        f"serving event loop regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(reference {t_reference * 1000:.0f} ms, batched {t_batched * 1000:.0f} ms "
        f"for {completed} requests over {len(TENANT_METHODS)} tenants on "
        f"{NUM_DEVICES} devices)"
    )
