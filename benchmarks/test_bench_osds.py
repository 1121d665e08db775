"""OSDS episode-throughput benchmark: episodes/sec, sequential vs batched.

PR 1/PR 2 made plan *evaluation* fast; this gate guards the loop above it —
the OSDS search itself, whose wall time was dominated by Python-level
episode orchestration (scalar MDP stepping plus per-episode plan building).
Episode-batched OSDS rolls rounds of episodes in lockstep through one
vectorised ``(episodes, devices)`` sweep per layer-volume, and the result is
bit-identical to the scalar loop at any execution width, so the speedup is
pure profit.

The **gated** comparison runs the search loop with ``updates_per_step=0``
(replay-buffer feeding on, gradient updates off): DDPG updates are
strictly-sequential canonical work executed identically — to the bit — by
both paths, so including them would only dilute the measurement of the
component this PR vectorises.  The full training loop (paper-size networks,
one update per step) is also measured and recorded, unenforced, so the
end-to-end picture stays on the record.

Nothing here needs multiple cores — the win is single-core vectorisation
— so the gate is enforced everywhere.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from _gate import record_gate_result

from repro.core.ddpg import DDPGConfig
from repro.core.mdp import SplitMDP
from repro.core.osds import OSDS, OSDSConfig
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator

NUM_DEVICES = 8
EPISODES = 64
EPISODE_BATCH = 32
ROUNDS = 3
MIN_SPEEDUP = 3.0
MODEL_NAME = "vgg16"
SEED = 5
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_osds.json"


def _run_osds(model, devices, network, boundaries, episode_batch, updates_per_step):
    """One cold OSDS run (fresh evaluator, so no cross-run cache warming)."""
    env = SplitMDP(model, boundaries, devices, BatchPlanEvaluator(devices, network))
    cfg = OSDSConfig(
        max_episodes=EPISODES,
        seed=SEED,
        episode_batch=episode_batch,
        policy_refresh=EPISODE_BATCH,
        updates_per_step=updates_per_step,
        ddpg=DDPGConfig(),
    )
    osds = OSDS(env, cfg)
    start = time.perf_counter()
    result = osds.run()
    return EPISODES / (time.perf_counter() - start), result


def _best_of(model, devices, network, boundaries, episode_batch, updates_per_step, rounds):
    best_eps = 0.0
    result = None
    for _ in range(rounds):
        eps_per_s, result = _run_osds(
            model, devices, network, boundaries, episode_batch, updates_per_step
        )
        best_eps = max(best_eps, eps_per_s)
    return best_eps, result


def test_bench_osds_episode_batching(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    boundaries = [0, 4, 8, model.num_spatial_layers]

    # --- gated: the search loop (no gradient updates) ------------------- #
    seq_eps, seq_result = _best_of(model, devices, network, boundaries, 1, 0, ROUNDS)
    bat_eps, bat_result = _best_of(
        model, devices, network, boundaries, EPISODE_BATCH, 0, ROUNDS
    )
    speedup = bat_eps / seq_eps
    bit_identical = (
        bat_result.best_latency_ms == seq_result.best_latency_ms
        and np.array_equal(bat_result.episode_latencies_ms, seq_result.episode_latencies_ms)
        and [d.cuts for d in bat_result.best_decisions]
        == [d.cuts for d in seq_result.best_decisions]
    )

    # --- recorded, unenforced: full training incl. paper-size updates --- #
    seq_train_eps, _ = _best_of(model, devices, network, boundaries, 1, 1, 1)
    bat_train_eps, _ = _best_of(model, devices, network, boundaries, EPISODE_BATCH, 1, 1)

    rows = record_gate_result(
        BENCH_PATH,
        {
            "scenario": scenario.name,
            "model": MODEL_NAME,
            "num_devices": NUM_DEVICES,
            "episodes": EPISODES,
            "episode_batch": EPISODE_BATCH,
            "policy_refresh": EPISODE_BATCH,
            "rounds": ROUNDS,
            "sequential_eps_per_s": seq_eps,
            "batched_eps_per_s": bat_eps,
            "speedup_batched_over_sequential": speedup,
            "bit_identical": bit_identical,
            "min_speedup_gate": MIN_SPEEDUP,
            "full_training": {
                "updates_per_step": 1,
                "sequential_eps_per_s": seq_train_eps,
                "batched_eps_per_s": bat_train_eps,
                "speedup_batched_over_sequential": bat_train_eps / seq_train_eps,
                "note": "DDPG updates are canonical sequential work shared "
                "bit-identically by both paths; unenforced",
            },
        },
    )
    print(f"\nBENCH_osds: {json.dumps(rows, indent=2)}")

    benchmark.pedantic(
        lambda: _run_osds(model, devices, network, boundaries, EPISODE_BATCH, 0),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    assert bit_identical, "episode-batched OSDS diverged from the sequential loop"
    assert speedup >= MIN_SPEEDUP, (
        f"episode batching regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"({seq_eps:.0f} eps/s sequential vs {bat_eps:.0f} eps/s batched at "
        f"E={EPISODE_BATCH} on {NUM_DEVICES} devices)"
    )
