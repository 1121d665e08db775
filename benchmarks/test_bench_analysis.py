"""Trace-analysis gate: attribution must be cheap relative to serving.

``repro analyze`` is meant to run casually after every traced run, so the
critical-path analyzer has to stay a small fraction of the cost of
producing the trace in the first place.  This bench serves the 100-tenant,
32-device fleet of ``test_bench_obs.py`` with a live tracer, materialises
the canonical event stream once (export cost, paid by ``--trace-json``
anyway), then times :func:`repro.obs.analysis.analyze_events` over it and
gates the analysis at ``MAX_ANALYZE_RATIO`` (0.5x) of the traced serving
time on the same machine — a relative gate, so it always enforces.  The
serving side is timed end-to-end as ``repro serve --trace-json`` pays it:
the run plus the canonical-stream materialisation, which is what it costs
to *have* a trace to analyze.

The speed means nothing if the numbers are wrong, so the gate also
re-asserts the exactness invariant on the full workload: every one of the
~12k request tilings must telescope bit-exactly to its committed latency,
and the per-tenant rollups must agree with the serving report.  Numbers
land in ``BENCH_analysis.json`` via the shared :mod:`_gate` bookkeeping;
``speedup_analyze_vs_serve`` feeds the trend check.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from _gate import record_gate_result

from repro.baselines import BASELINE_REGISTRY
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.obs import Tracer
from repro.obs.analysis import analyze_events
from repro.runtime.batch import BatchPlanEvaluator
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec

NUM_DEVICES = 32
NUM_TENANTS = 100
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 2.0
DURATION_S = 60.0
DEADLINE_MS = 500.0
ROUNDS = 3
MAX_ANALYZE_RATIO = 0.5
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_analysis.json"


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
    best_t, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_t = min(best_t, time.perf_counter() - start)
    return best_t, result


def test_bench_analysis_speed_and_exactness(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    def run_traced():
        tracer = Tracer()
        report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
            tenants, duration_s=DURATION_S, mode="batched", tracer=tracer,
        )
        # Materialising the canonical stream is part of the serving side:
        # --trace-json pays it on export, before any trace exists to read.
        return report, tracer.sorted_events()

    t_serve, (report, events) = _best_of(run_traced)

    t_analyze, analysis = _best_of(lambda: analyze_events(events))

    # Exactness on the full gated workload: every request's tiling
    # telescopes bit-for-bit to its committed latency.
    analysis.check_exact()
    assert analysis.num_requests == report.total_completed
    for tenant in report.tenants:
        rollup = analysis.tenant(tenant.name)
        assert rollup.requests == tenant.num_completed
        assert math.isclose(
            rollup.latency_ms, float(tenant.latency_ms.sum()), rel_tol=1e-9
        )

    ratio = t_analyze / t_serve
    rows = {
        "scenario": scenario.name,
        "model": MODEL_NAME,
        "num_devices": NUM_DEVICES,
        "num_tenants": NUM_TENANTS,
        "duration_s": DURATION_S,
        "requests_analyzed": analysis.num_requests,
        "events_analyzed": len(events),
        "rounds": ROUNDS,
        "serve_traced_s": t_serve,
        "analyze_s": t_analyze,
        "analyze_to_serve_ratio": ratio,
        "exact": True,  # check_exact above would have raised
        "max_analyze_ratio_gate": MAX_ANALYZE_RATIO,
        "speedup_analyze_vs_serve": t_serve / t_analyze,
    }

    benchmark.pedantic(lambda: analyze_events(events), rounds=1, iterations=1,
                       warmup_rounds=0)

    recorded = record_gate_result(BENCH_PATH, rows)
    print(f"\nBENCH_analysis: {json.dumps(recorded, indent=2)}")

    assert ratio <= MAX_ANALYZE_RATIO, (
        f"critical-path analysis too slow: {t_analyze * 1000:.0f} ms for "
        f"{analysis.num_requests} requests vs {t_serve * 1000:.0f} ms serving "
        f"(ratio {ratio:.2f} > gate {MAX_ANALYZE_RATIO})"
    )
