"""Array-engine benchmark: 100-tenant fleet against the committed serve loop.

The array engine's gate: a 100-tenant open-loop workload (tenants cycling
the four baseline methods so plan-signature groups stay realistic while
per-tenant bookkeeping dominates) on a generated 32-device fleet is driven
through the default batched loop — the array engine of
:mod:`repro.serving.engine` (NumPy column commits with epoch speculation).

The gate asserts its throughput is at least ``MIN_SPEEDUP`` (10x) the
committed ``BENCH_serve.json`` batched throughput, the object event loop
this engine superseded, measured on its own gated workload.  When the
committed serve baseline is missing the gate records a skip instead of
enforcing against nothing.  Bit-identity is not re-checked here: a
reference run of this workload takes over a minute, so the engine's parity
lives in ``test_bench_serve.py`` (same generated 32-device fleet) and
``tests/serving/test_engine.py``.  Numbers land in ``BENCH_engine.json``
via the shared :mod:`_gate` bookkeeping.
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
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec

NUM_DEVICES = 32
NUM_TENANTS = 100
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 2.0
DURATION_S = 60.0
DEADLINE_MS = 500.0
ROUNDS = 3
MIN_SPEEDUP = 10.0
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
SERVE_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def _make_tenants(model, devices, network):
    plans = {
        method: BASELINE_REGISTRY[method]().plan(model, devices, network)
        for method in TENANT_METHODS
    }
    tenants = []
    for i in range(NUM_TENANTS):
        method = TENANT_METHODS[i % len(TENANT_METHODS)]
        tenants.append(
            TenantSpec(
                name=f"{method}-{i}",
                plan=plans[method],
                traffic=PoissonArrivals(rate_rps=RATE_RPS, seed=1000 + i),
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


def _committed_serve_rps():
    try:
        value = json.loads(SERVE_BENCH_PATH.read_text()).get(
            "batched_requests_per_s"
        )
    except (OSError, ValueError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def test_bench_array_engine(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    # Array engine: NumPy column commits + epoch speculation, fresh batch
    # evaluator per round so the cold first epoch is included (no
    # cross-round cache carry).
    def run_array():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="batched")

    t_array, array_report = _best_of(run_array)
    completed = array_report.total_completed
    array_rps = completed / t_array
    serve_rps = _committed_serve_rps()

    rows = {
        "scenario": scenario.name,
        "model": MODEL_NAME,
        "num_devices": NUM_DEVICES,
        "num_tenants": NUM_TENANTS,
        "tenant_methods": list(TENANT_METHODS),
        "arrival_rate_rps_per_tenant": RATE_RPS,
        "duration_s": DURATION_S,
        "requests_completed": completed,
        "epochs": array_report.epochs,
        "speculated": array_report.speculated,
        "rounds": ROUNDS,
        "array_requests_per_s": array_rps,
        "committed_serve_batched_requests_per_s": serve_rps,
        "deadline_miss_rate": array_report.deadline_miss_rate,
        "min_speedup_gate": MIN_SPEEDUP,
    }

    benchmark.pedantic(run_array, rounds=1, iterations=1, warmup_rounds=0)

    if serve_rps is None:
        recorded = record_gate_result(
            BENCH_PATH,
            {},
            enforced=False,
            skip_info={**rows, "reason": "no committed BENCH_serve.json baseline"},
        )
        print(f"\nBENCH_engine (gate skipped): {json.dumps(recorded, indent=2)}")
        return

    speedup = array_rps / serve_rps
    rows["speedup_vs_committed_serve"] = speedup
    recorded = record_gate_result(BENCH_PATH, rows)
    print(f"\nBENCH_engine: {json.dumps(recorded, indent=2)}")

    assert speedup >= MIN_SPEEDUP, (
        f"array engine regressed: {array_rps:.0f} req/s is {speedup:.2f}x the "
        f"committed serve-loop throughput ({serve_rps:.0f} req/s), below the "
        f"{MIN_SPEEDUP}x gate ({completed} requests, {NUM_TENANTS} tenants, "
        f"{NUM_DEVICES} devices, array {t_array * 1000:.0f} ms)"
    )
