"""End-to-end benchmark of the DistrEdge planner and the serving simulator.

Runs named workloads through the public API, each in its own process pinned
to one CPU, checks every repetition's outputs, and prints every metric by
name with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  Exits 1 if any repetition failed.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                  [--trace 0|1] [--scale full|smoke] [--json PATH]
    python3 benchmarks/e2e/run.py compare BASE.json CHANGE.json

The load is a closed loop with one caller: repetitions run back to back.
Timings are host wall time; simulated latencies are outputs of the program
and are checked, not timed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
IMPORT_SAMPLES = 5
#: Times `import repro` in a fresh interpreter pinned like the workers.  It
#: imports nothing else first, so no module `repro` needs is already loaded.
IMPORT_PROBE = (
    "import os, time\n"
    "try:\n"
    "    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})\n"
    "except (AttributeError, OSError):\n"
    "    pass\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - start)\n"
)
PREDICT_LAYER = "runtime.contention.ContentionAwareEvaluator.predict"


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not a failed check)."""


def load_definition() -> dict:
    if not BENCHMARK_JSON.is_file():
        raise BenchmarkError(f"{BENCHMARK_JSON.name} not found at {ROOT}")
    return json.loads(BENCHMARK_JSON.read_text())


def layer_metric_names() -> list:
    from ledger import LAYERS

    names = [f"{layer}.{field}" for layer in LAYERS for field in ("calls", "busy_s", "self_s")]
    return names + [
        "serving.simulator.epochs",
        "runtime.batch.cache_hit_ratio",
        "runtime.contention.memo_hit_ratio",
        "trace_overhead",
        "layer_coverage",
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Set before numpy loads in the child, so no BLAS pool competes with the pinned worker.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONHASHSEED"] = "0"
    return env


def summarize(samples) -> dict:
    samples = [float(x) for x in samples]
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def measure_import(env: dict) -> list:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"`import repro` failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()))
    return samples


def run_worker(env: dict, workload: str, args) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    command += ["--spans", "1" if args.json and args.trace else "0"]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=4 * args.seconds + 120
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload {workload} timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"workload {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def evaluate(raw: dict, import_samples: list, definition: dict) -> dict:
    """Turn a worker's raw repetitions into checked, named metrics."""
    reps = raw["reps"]
    ok = [r for r in reps if not r["errors"]]
    digest = ok[0]["digest"] if ok else None
    errors = [e for r in reps for e in r["errors"]]
    for r in ok:
        if r["digest"] != digest:
            r["errors"].append(f"outputs digest {r['digest']} != first repetition's {digest}")
            errors.append(r["errors"][-1])
    ok = [r for r in ok if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}

    end_to_end = {}
    if plain:
        rep_setup = statistics.median(r["setup_s"] for r in ok)
        end_to_end = {
            "setup_s": summarize(x + rep_setup for x in import_samples),
            "wall_s": summarize(r["wall_s"] for r in plain),
            "throughput": summarize(r["work"] / r["wall_s"] for r in plain),
            "peak_rss_mb": summarize([raw["peak_rss_mb"]]),
        }
    per_layer = {}
    if traced and plain:
        n = len(traced)
        for layer, (calls, busy, self_s) in raw["layers"].items():
            per_layer[f"{layer}.calls"] = calls / n
            per_layer[f"{layer}.busy_s"] = busy / n
            per_layer[f"{layer}.self_s"] = self_s / n
        hits, lookups = raw["plan_cache"]
        predicts = raw["layers"][PREDICT_LAYER][0]
        traced_wall = [r["wall_s"] for r in traced]
        per_layer.update(
            {
                "serving.simulator.epochs": sum(r["counters"]["epochs"] for r in traced) / n,
                "runtime.batch.cache_hit_ratio": hits / lookups if lookups else 0.0,
                "runtime.contention.memo_hit_ratio": (
                    sum(r["counters"]["cache_hits"] for r in traced) / predicts if predicts else 0.0
                ),
                "trace_overhead": statistics.median(traced_wall)
                / statistics.median(r["wall_s"] for r in plain),
                "layer_coverage": raw["covered_s"] / sum(traced_wall),
            }
        )
    for metrics in (end_to_end, per_layer):
        for metric, value in list(metrics.items()):
            entry = value if isinstance(value, dict) else {"value": value}
            metrics[metric] = {**entry, "unit": units[metric]}
    return {
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "errors": errors,
        "digest": digest,
        "outputs": ok[0]["outputs"] if ok else {},
        "work_per_rep": ok[0]["work"] if ok else 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "affinity": raw["affinity"],
        "numpy": raw["numpy"],
        "reps": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "work")} for r in reps],
        "spans": raw.get("spans"),
    }


def print_result(name: str, result: dict) -> None:
    print(
        f"[{name}] {result['attempted']} reps, {result['failed']} failed, "
        f"{result['work_per_rep']} work units/rep, digest {result['digest']}"
    )
    for key, value in result["outputs"].items():
        print(f"  output {key} = {value!r}")
    for metric, m in result["end_to_end"].items():
        print(
            f"  {metric:<14} {m['value']:>12.6g} {m['unit']:<6} "
            f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        )
    for metric, m in result["per_layer"].items():
        print(f"  {metric:<58} {m['value']:>12.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")


def run(argv) -> int:
    definition = load_definition()
    workload_names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end planner and serving benchmark.")
    parser.add_argument("--workload", nargs="+", action="extend", choices=workload_names)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", metavar="PATH", help="write every number, and the spans, here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}")
    expected = layer_metric_names()
    if [m["name"] for m in definition["per_layer"]] != expected:
        raise BenchmarkError("BENCHMARK.json per_layer metrics differ from the ledger's layers")

    env = child_env()
    import_samples = measure_import(env)
    results = {}
    for name in args.workload or workload_names:
        results[name] = evaluate(run_worker(env, name, args), import_samples, definition)

    first = next(iter(results.values()))
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "affinity": first["affinity"],
        "blas_threads": 1,
    }
    print(
        f"e2e seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale} "
        + " ".join(f"{k}={v}" for k, v in environment.items())
    )
    print(f"import repro: median {statistics.median(import_samples):.6g} s of {IMPORT_SAMPLES}")
    for name, result in results.items():
        print_result(name, result)

    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "scale": args.scale,
                    "environment": environment,
                    "import_s": import_samples,
                    "workloads": results,
                }
            )
        )
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in definition[section]:
            if metric["name"] in result[section]:
                m = result[section][metric["name"]]
                metrics[prefix + metric["name"]] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------- #
def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    if (base["q3"] - base["q1"]) / base["value"] > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (change["value"] - base["value"]) / base["value"]
    if delta > bound:
        return "worse"
    return "better" if delta < -bound else "same"


def compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare", description="Compare two --json results under BENCHMARK.json bounds."
    )
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    definition = load_definition()
    base = json.loads(Path(args.base).read_text())["workloads"]
    change = json.loads(Path(args.change).read_text())["workloads"]
    worse = 0
    for name in [w for w in base if w in change]:
        print(f"[{name}]")
        for spec in definition["end_to_end"]:
            b = base[name]["end_to_end"].get(spec["name"])
            c = change[name]["end_to_end"].get(spec["name"])
            if b is None or c is None:
                continue
            for side in (b, c):
                side.update(summarize(side["samples"]))
            result = verdict(b, c, spec["better"], spec["bound"])
            worse += result == "worse"
            print(
                f"  {spec['name']:<12} base {b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
                f"change {c['value']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {spec['unit']}  "
                f"{c['value'] / b['value'] - 1:+.1%}  {result} (bound {spec['bound']:.0%})"
            )
        b_layers, c_layers = base[name]["per_layer"], change[name]["per_layer"]
        for metric in [m for m in b_layers if m.endswith(".self_s") and m in c_layers]:
            b, c = b_layers[metric]["value"], c_layers[metric]["value"]
            if b or c:
                print(f"  {metric:<58} self {b:.6g} -> {c:.6g} s ({c - b:+.6g})")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["compare"]:
            return compare(argv[1:])
        return run(argv)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
