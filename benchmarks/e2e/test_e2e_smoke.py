"""Smoke test of the end-to-end benchmark at 1/20 size (opt-in: ``bench`` marker).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]


def _bench(*args: str, expect: int = 0) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Smoke results keyed by label: stdout and the --json document."""
    tmp = tmp_path_factory.mktemp("e2e")
    results = {}
    for label, args in {
        "seed17": ("--seed", "17"),
        "seed17-again": ("--seed", "17"),
        "seed18": ("--seed", "18"),
        "traced": ("--seed", "17", "--trace", "1"),
    }.items():
        path = tmp / f"{label}.json"
        stdout = _bench("--scale", "smoke", "--seconds", "0", "--json", str(path), *args)
        results[label] = (stdout, json.loads(path.read_text()), path)
    return results


def test_every_metric_is_printed_with_its_unit(runs):
    for label, section in (("seed17", "end_to_end"), ("traced", "per_layer")):
        stdout, _, _ = runs[label]
        lines = stdout.splitlines()
        final = json.loads(lines[-1])
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= len(WORKLOADS)
        for workload in WORKLOADS:
            for metric in DEFINITION[section]:
                entry = final["metrics"][f"{workload}.{metric['name']}"]
                assert entry["unit"] == metric["unit"]
                assert any(
                    line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                    for line in lines
                ), metric["name"]


def test_traced_self_times_fit_in_the_wall_time(runs):
    _, doc, _ = runs["traced"]
    for workload, result in doc["workloads"].items():
        traced_walls = [r["wall_s"] for r in result["reps"] if r["traced"]]
        mean_wall = sum(traced_walls) / len(traced_walls)
        self_times = [m["value"] for k, m in result["per_layer"].items() if k.endswith(".self_s")]
        assert min(self_times) >= 0.0, workload
        assert sum(self_times) <= mean_wall * (1 + 1e-9), workload
        assert 0.0 < result["per_layer"]["layer_coverage"]["value"] <= 1.0
        assert result["spans"], workload


def test_digests_repeat_with_the_seed_and_change_with_it(runs):
    digests = {
        label: {w: r["digest"] for w, r in doc["workloads"].items()}
        for label, (_, doc, _) in runs.items()
    }
    assert digests["seed17"] == digests["seed17-again"] == digests["traced"]
    for workload in WORKLOADS:
        assert digests["seed18"][workload] != digests["seed17"][workload], workload


def test_compare_flags_a_wall_time_regression(runs, tmp_path):
    _, doc, path = runs["seed17"]
    _bench("compare", str(path), str(path))
    bound = next(m["bound"] for m in DEFINITION["end_to_end"] if m["name"] == "wall_s")
    base, change = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    for workload in WORKLOADS:
        base["workloads"][workload]["end_to_end"]["wall_s"]["samples"] = [1.0, 1.0, 1.0]
        change["workloads"][workload]["end_to_end"]["wall_s"]["samples"] = [1 + 2 * bound] * 3
    base_path, change_path = tmp_path / "base.json", tmp_path / "change.json"
    base_path.write_text(json.dumps(base))
    change_path.write_text(json.dumps(change))
    stdout = _bench("compare", str(base_path), str(change_path), expect=1)
    wall_lines = [line for line in stdout.splitlines() if line.strip().startswith("wall_s")]
    assert len(wall_lines) == len(WORKLOADS)
    assert all("worse" in line for line in wall_lines)
