"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts (a table
or a figure) and prints the resulting rows; each figure bench states the
paper's expected shape in its docstring, and ``docs/benchmarks.md`` covers
running them.  Benchmarks run **once** (``benchmark.pedantic`` with a single
round) because each one is itself a full experiment, not a micro-benchmark.

Fidelity knobs are read from environment variables so the same files can be
run in a fast configuration (default) or closer to paper scale:

``REPRO_BENCH_EPISODES``       OSDS episodes for 4-device scenarios (default 80)
``REPRO_BENCH_EPISODES_LARGE`` OSDS episodes for 16-device scenarios (default 40)
``REPRO_BENCH_RANDOM_SPLITS``  |Rr_s| for LC-PSS (default 20)
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.harness import ExperimentHarness, HarnessConfig

EPISODES = int(os.environ.get("REPRO_BENCH_EPISODES", "80"))
EPISODES_LARGE = int(os.environ.get("REPRO_BENCH_EPISODES_LARGE", "40"))
RANDOM_SPLITS = int(os.environ.get("REPRO_BENCH_RANDOM_SPLITS", "20"))


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker.

    Tier-1 (`pytest` from the repository root) collects only ``tests/`` via
    the ``testpaths`` setting in pyproject.toml; benchmarks run opt-in with
    ``pytest benchmarks`` (optionally ``-m bench`` elsewhere).
    """
    for item in items:
        item.add_marker(pytest.mark.bench)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def fast_harness():
    """Harness for 4-device scenarios (shared so figure cells are cached)."""
    return ExperimentHarness(
        HarnessConfig(
            osds_episodes=EPISODES,
            num_random_splits=RANDOM_SPLITS,
            seed=0,
        )
    )


@pytest.fixture(scope="session")
def large_scale_harness():
    """Harness for the 16-provider scenarios of Table III / Fig. 9."""
    return ExperimentHarness(
        HarnessConfig(
            osds_episodes=EPISODES_LARGE,
            num_random_splits=RANDOM_SPLITS,
            seed=0,
        )
    )


@pytest.fixture(scope="session")
def model_sweep_harness():
    """Harness for the seven-extra-model sweeps of Figs. 10-11."""
    return ExperimentHarness(
        HarnessConfig(
            osds_episodes=max(EPISODES // 2, 30),
            num_random_splits=RANDOM_SPLITS,
            seed=0,
        )
    )
