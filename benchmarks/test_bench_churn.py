"""Churn-aware serving benchmark: epoch-batched loop vs reference, crashing fleet.

The fault subsystem's gate: a 4-tenant open-loop workload on a generated
16-device fleet is served through a seeded churn timeline — crashes, a
graceful leave and a rejoin, timed to kill work in flight — once in
``reference`` mode (one scalar evaluation per request attempt, the
semantics oracle) and once in ``batched`` mode, where the array engine
must bound its speculation windows at fault-event boundaries, resolve killed
attempts through the retry policy on replanned survivor strategies, and
still agree with the oracle float for float.

The gate asserts the batched loop serves the churned workload at least
``MIN_SPEEDUP`` (3x) faster in wall time and that the two loops' reports —
per-tenant series *and* the :class:`~repro.runtime.faults.FaultReport`
(crash kills, retry timings, abandons, sheds) — are bit-identical, via the
same ``assert_reports_equal`` the parity tests use.  The trace is also
required to actually bite (lost attempts and sheds > 0): a gate whose
churn never touched a request would be measuring the immortal-fleet path
under a new name.  Nothing here needs multiple cores, so the gate is
enforced everywhere.  Numbers land in ``BENCH_churn.json`` via the shared
:mod:`_gate` bookkeeping.
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
from repro.runtime.faults import DegradationPolicy, RetryPolicy, parse_churn_spec
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec
from repro.serving.simulator import assert_reports_equal

NUM_DEVICES = 16
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 5.0
DURATION_S = 10.0
DEADLINE_MS = 500.0
ROUNDS = 3
MIN_SPEEDUP = 3.0
MODEL_NAME = "vgg16"
CHURN = "churn:crashes=3,leaves=1,joins=1,seed=17,start_ms=1000,window_ms=7000"
RETRY = RetryPolicy(max_attempts=3, backoff_ms=25.0, jitter_ms=5.0, seed=17)
DEGRADE = DegradationPolicy(min_live_fraction=0.9)
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_churn.json"


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
                weight=float(len(TENANT_METHODS) - i),
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


def test_bench_churned_event_loop(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)
    faults = parse_churn_spec(CHURN).resolve(NUM_DEVICES)

    # Reference: one scalar evaluation per request attempt, fresh evaluator
    # each round (no plan LRU, no epoch grouping).
    def run_reference():
        simulator = ServingSimulator(PlanEvaluator(devices, network))
        return simulator.run(
            tenants,
            duration_s=DURATION_S,
            mode="reference",
            faults=faults,
            retry=RETRY,
            degradation=DEGRADE,
        )

    # Batched: epoch grouping bounded at fault-event boundaries, fresh batch
    # evaluator each round so the speedup includes every cold miss.
    def run_batched():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(
            tenants,
            duration_s=DURATION_S,
            mode="batched",
            faults=faults,
            retry=RETRY,
            degradation=DEGRADE,
        )

    t_reference, reference_report = _best_of(run_reference)
    t_batched, batched_report = _best_of(run_batched)

    # Bit-identity including the fault report (assert_reports_equal compares
    # it alongside every per-tenant series).
    assert_reports_equal(batched_report, reference_report)
    fault_report = batched_report.faults
    assert fault_report is not None
    assert fault_report.lost_attempts > 0, "churn never killed an attempt"
    assert fault_report.total_shed > 0, "degradation never shed an arrival"

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
            "churn": CHURN,
            "crashes": fault_report.num_crashes,
            "live_at_end": fault_report.live_at_end,
            "lost_attempts": fault_report.lost_attempts,
            "retried_requests": fault_report.retried_requests,
            "abandoned_requests": fault_report.abandoned_requests,
            "total_shed": fault_report.total_shed,
            "degraded_ms": fault_report.degraded_ms,
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
    print(f"\nBENCH_churn: {json.dumps(rows, indent=2)}")

    benchmark.pedantic(run_batched, rounds=1, iterations=1, warmup_rounds=0)

    assert speedup >= MIN_SPEEDUP, (
        f"churn-aware serving loop regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(reference {t_reference * 1000:.0f} ms, batched {t_batched * 1000:.0f} ms "
        f"for {completed} requests over {len(TENANT_METHODS)} tenants on "
        f"{NUM_DEVICES} devices with {fault_report.num_crashes} crashes)"
    )
