"""Observability overhead gate: tracing must be free when off, cheap when on.

The ``repro.obs`` integration contract has two halves, and this bench
gates both on the array engine's own gated workload (the 100-tenant,
32-device fleet of ``test_bench_engine.py``):

* **Off is free.**  With no tracer/metrics attached (the default), the
  instrumented loops pay one ``enabled`` attribute check per hook site.
  The gate asserts throughput within ``MAX_OFF_LOSS`` (5%) of the
  committed ``BENCH_engine.json`` array throughput — the same workload,
  measured before the hooks existed or on the last enforced run.
* **On is bounded.**  With a live ``Tracer`` + ``MetricsRegistry``, the
  run slows by at most ``MAX_ON_OVERHEAD`` (25%): lifecycle derivation is
  deferred (``Tracer.defer_report`` is O(1); events materialise at first
  trace read, i.e. export time), so the run itself pays only live
  emission and the metrics recording.

Both halves re-assert bit-identical reports (tracing must never touch a
committed float).  When the committed engine baseline is missing or its
gate did not enforce, the absolute comparison is meaningless on this
machine and the gate records a skip instead.  Numbers land in
``BENCH_obs.json`` via the shared :mod:`_gate` bookkeeping; the
``speedup_*`` ratios feed the trend check.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _gate import record_gate_result

from repro.baselines import BASELINE_REGISTRY
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.obs import MetricsRegistry, Tracer
from repro.runtime.batch import BatchPlanEvaluator
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec
from repro.serving.simulator import assert_reports_equal

NUM_DEVICES = 32
NUM_TENANTS = 100
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 2.0
DURATION_S = 60.0
DEADLINE_MS = 500.0
ROUNDS = 3
MAX_OFF_LOSS = 0.05
MAX_ON_OVERHEAD = 0.25
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
ENGINE_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _make_tenants(model, devices, network):
    plans = {
        method: BASELINE_REGISTRY[method]().plan(model, devices, network)
        for method in TENANT_METHODS
    }
    return [
        TenantSpec(
            name=f"{TENANT_METHODS[i % len(TENANT_METHODS)]}-{i}",
            plan=plans[TENANT_METHODS[i % len(TENANT_METHODS)]],
            traffic=PoissonArrivals(rate_rps=RATE_RPS, seed=1000 + i),
            slo=SLO(deadline_ms=DEADLINE_MS),
        )
        for i in range(NUM_TENANTS)
    ]


def _best_of(fn, rounds=ROUNDS):
    best_t, report = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        report = fn()
        best_t = min(best_t, time.perf_counter() - start)
    return best_t, report


def _committed_engine_rps():
    try:
        data = json.loads(ENGINE_BENCH_PATH.read_text())
    except (OSError, ValueError):
        return None
    if not data.get("gate_enforced"):
        return None
    value = data.get("array_requests_per_s")
    return float(value) if isinstance(value, (int, float)) else None


def test_bench_observability_overhead(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    # Off: the default no-op hooks — must match the committed engine bench.
    def run_off():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="batched")

    # On: a live tracer and metrics registry attached to the same run.
    def run_on():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(
            tenants,
            duration_s=DURATION_S,
            mode="batched",
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )

    t_off, off_report = _best_of(run_off)
    t_on, on_report = _best_of(run_on)

    assert_reports_equal(on_report, off_report)
    completed = off_report.total_completed
    off_rps = completed / t_off
    on_rps = completed / t_on
    overhead = t_on / t_off
    committed_rps = _committed_engine_rps()

    rows = {
        "scenario": scenario.name,
        "model": MODEL_NAME,
        "num_devices": NUM_DEVICES,
        "num_tenants": NUM_TENANTS,
        "duration_s": DURATION_S,
        "requests_completed": completed,
        "rounds": ROUNDS,
        "off_requests_per_s": off_rps,
        "on_requests_per_s": on_rps,
        "tracing_overhead_ratio": overhead,
        "committed_engine_array_requests_per_s": committed_rps,
        "bit_identical": True,  # assert_reports_equal above would have raised
        "max_off_loss_gate": MAX_OFF_LOSS,
        "max_on_overhead_gate": MAX_ON_OVERHEAD,
    }

    benchmark.pedantic(run_off, rounds=1, iterations=1, warmup_rounds=0)

    if committed_rps is None:
        recorded = record_gate_result(
            BENCH_PATH,
            {},
            enforced=False,
            skip_info={
                **rows,
                "reason": "no enforced committed BENCH_engine.json baseline",
            },
        )
        print(f"\nBENCH_obs (gate skipped): {json.dumps(recorded, indent=2)}")
        return

    rows["speedup_off_vs_committed_engine"] = off_rps / committed_rps
    rows["speedup_on_vs_off"] = on_rps / off_rps
    recorded = record_gate_result(BENCH_PATH, rows)
    print(f"\nBENCH_obs: {json.dumps(recorded, indent=2)}")

    assert off_rps >= committed_rps * (1.0 - MAX_OFF_LOSS), (
        f"observability hooks slowed the tracing-OFF path: {off_rps:.0f} req/s "
        f"vs committed {committed_rps:.0f} req/s "
        f"(> {MAX_OFF_LOSS:.0%} loss; {completed} requests, "
        f"off {t_off * 1000:.0f} ms)"
    )
    assert overhead <= 1.0 + MAX_ON_OVERHEAD, (
        f"tracing-ON overhead too high: {overhead:.2f}x the off run "
        f"(gate {1.0 + MAX_ON_OVERHEAD:.2f}x; on {t_on * 1000:.0f} ms, "
        f"off {t_off * 1000:.0f} ms)"
    )
