"""Config checks reject NaN (and infinity where a value must be finite)."""

from __future__ import annotations

import math

import pytest

from repro.core.distredge import DistrEdgeConfig
from repro.obs.slo import BurnRateRule
from repro.runtime.faults import RetryPolicy
from repro.serving import ClusterPolicy
from repro.serving.control import AutoscalerConfig
from repro.utils.validation import check_non_negative

BUILDERS = {
    "cluster-window-ms": lambda v: ClusterPolicy(window_ms=v),
    "autoscaler-window-s": lambda v: AutoscalerConfig(1, 2, window_s=v),
    "autoscaler-burn-threshold": lambda v: AutoscalerConfig(1, 2, 5.0, burn_threshold=v),
    "autoscaler-capacity": lambda v: AutoscalerConfig(1, 2, 5.0, capacity_per_device_rps=v),
    "retry-backoff-ms": lambda v: RetryPolicy(backoff_ms=v),
    "retry-multiplier": lambda v: RetryPolicy(multiplier=v),
    "retry-jitter-ms": lambda v: RetryPolicy(jitter_ms=v),
    "retry-timeout-ms": lambda v: RetryPolicy(timeout_ms=v),
    "burn-fast-window": lambda v: BurnRateRule("burn", v, 30.0, 1.0),
    "burn-slow-window": lambda v: BurnRateRule("burn", 5.0, v, 1.0),
    "burn-threshold": lambda v: BurnRateRule("burn", 5.0, 30.0, v),
    "distredge-alpha": lambda v: DistrEdgeConfig(alpha=v),
    "check-non-negative": lambda v: check_non_negative(v, "value"),
}
# Infinity passes a plain lower bound, and an infinite retry timeout is
# the same "unbounded" as None.
UNBOUNDED_OK = {"check-non-negative", "retry-timeout-ms"}
CASES = [(name, math.nan) for name in BUILDERS] + [
    (name, math.inf) for name in BUILDERS if name not in UNBOUNDED_OK
]


@pytest.mark.parametrize("name, value", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_non_finite_value_rejected(name, value):
    with pytest.raises(ValueError):
        BUILDERS[name](value)
