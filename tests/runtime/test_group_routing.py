"""Differential test of size-aware group routing in the batch evaluator.

:meth:`BatchPlanEvaluator.evaluate_plans` groups plans sharing (model,
boundaries).  A group below the crossover of
:func:`~repro.runtime.batch._walks_group` walks each plan's compiled plan;
a larger one runs one :class:`~repro.runtime.batch.BatchVolumeScheduler`
sweep.  Whichever way a group goes, every result must equal the scalar
:class:`PlanEvaluator`'s bit for bit, and equal a sweep forced onto the same
group.  Groups here range from 2 plans to past the crossover, on generated
4- and 32-device fleets with a dynamic trace at ``t_seconds > 0``, on a
model with a dense head (``small_vgg``) and one without (``yolov2``), under
the ground-truth, a profile and a custom compute oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mdp import SplitMDP
from repro.nn.splitting import SplitDecision
from repro.runtime import batch as batch_module
from repro.runtime.batch import BatchPlanEvaluator, _walks_group
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.utils.rng import as_rng

from test_compiled_plan import ORACLES, _fleet, _model, _oracle, assert_results_identical

T_SECONDS = 37.5


def _crossover(devices: int, volumes: int) -> int:
    """The smallest group size that is swept."""
    k = 1
    while _walks_group(devices, volumes, k):
        k += 1
    return k


def _plans(model, devices, boundaries, k, seed):
    """``k`` plans sharing ``boundaries``, with random splits (some devices idle)."""
    rng = as_rng(seed)
    plans = []
    for i in range(k):
        decisions = []
        for volume in model.partition(boundaries):
            fractions = rng.random(len(devices))
            fractions[rng.random(len(devices)) < 0.25] = 0.0
            fractions[int(rng.integers(len(devices)))] = 1.0
            decisions.append(SplitDecision.from_fractions(fractions, volume.output_height))
        plans.append(DistributionPlan(model, devices, boundaries, decisions, method=f"p{i}"))
    return plans


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("model_name", ["small_vgg", "yolov2"])
@pytest.mark.parametrize("n", [4, 32])
def test_routed_groups_match_scalar_and_forced_sweep(n, model_name, oracle, monkeypatch):
    devices, network = _fleet(n, "dynamic", 3)
    model = _model(model_name)
    boundaries = [0, 3, 6, model.num_spatial_layers]
    crossover = _crossover(n, len(boundaries) - 1)
    assert 2 < crossover < 64
    options = {"compute_oracle": _oracle(oracle, model_name, devices)}
    scalar = PlanEvaluator(devices, network, **options)
    for k in sorted({2, crossover - 1, crossover, crossover + 2}):
        plans = _plans(model, devices, boundaries, k, seed=k)
        routed = BatchPlanEvaluator(devices, network, **options)
        results = routed.evaluate_plans(plans, T_SECONDS)
        # Walked groups leave a compiled plan per plan behind; swept ones none.
        assert len(routed._compiled) == (k if k < crossover else 0)
        # Every result against the forced sweep below; a spread of them
        # (the first, every fifth, the last) against the scalar walk.
        for i in sorted({*range(0, k, 5), k - 1}):
            assert_results_identical(results[i], scalar.evaluate(plans[i], T_SECONDS))

        with monkeypatch.context() as forced:
            forced.setattr(batch_module, "_walks_group", lambda *_: False)
            swept = BatchPlanEvaluator(devices, network, **options)
            for fast, sweep in zip(results, swept.evaluate_plans(plans, T_SECONDS)):
                assert_results_identical(fast, sweep)
            assert len(swept._compiled) == 0


def test_walked_plan_seeds_the_part_memo_for_a_split_mdp_replay():
    devices, network = _fleet(4, "constant", 1)
    model = _model("small_vgg")
    boundaries = [0, 3, 6, model.num_spatial_layers]
    evaluator = BatchPlanEvaluator(devices, network)
    env = SplitMDP(model, boundaries, devices, evaluator)
    plans = _plans(model, devices, boundaries, 3, seed=5)
    assert _walks_group(len(devices), len(boundaries) - 1, len(plans))
    results = evaluator.evaluate_plans(plans)
    oracle = evaluator.oracle
    misses, hits = oracle.misses, oracle.hits
    for plan, result in zip(plans, results):
        # Raw actions that map back onto the plan's cut points.
        actions = [
            np.array(d.cuts, dtype=float) * 2.0 / d.output_height - 1.0 for d in plan.decisions
        ]
        latency, replayed = env.rollout(actions)
        assert [d.cuts for d in replayed.decisions] == [d.cuts for d in plan.decisions]
        assert latency == result.end_to_end_ms
    assert oracle.misses == misses
    assert oracle.hits > hits
