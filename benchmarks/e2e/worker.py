"""One workload's repetitions, in a process of their own.

``run.py`` starts this script once per workload with the BLAS thread
variables already set to 1, so numpy starts no BLAS thread pool.  The worker
pins itself to one CPU, runs repetitions back to back until ``--seconds``
have passed (at least :data:`MIN_REPS`), and prints one JSON line with the
raw per-repetition numbers; ``run.py`` turns them into metrics.

With ``--trace 1`` repetitions alternate untraced and traced, so the
tracing overhead is measured on neighbouring pairs.

    python3 benchmarks/e2e/worker.py --workload plan --seed 17 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_REPS = 3


def pin_to_one_cpu() -> str:
    """Pin this process to the highest-numbered CPU it may use."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"unpinned ({type(exc).__name__}: {exc})"
    return f"cpu {cpu}"


def run_rep(workload, seed: int, scale: float, ledger, rep: int) -> dict:
    gc.collect()
    start = perf_counter()
    inputs = workload.setup(seed, scale)
    setup_s = perf_counter() - start
    if ledger is not None:
        ledger.install(rep)
    try:
        start = perf_counter()
        result = workload.run(inputs)
        wall_s = perf_counter() - start
    finally:
        if ledger is not None:
            ledger.uninstall()
    outcome = workload.check(inputs, result)
    return {
        "traced": ledger is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": outcome.work,
        "digest": outcome.digest,
        "outputs": outcome.outputs,
        "counters": outcome.counters,
        "errors": outcome.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    affinity = pin_to_one_cpu()
    src = Path(__file__).resolve().parents[2] / "src"
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    from ledger import Ledger
    from workloads import SCALES, WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    ledger = Ledger() if args.trace else None
    reps = []
    begin = perf_counter()
    while (
        len(reps) < (2 * MIN_REPS if args.trace else MIN_REPS)
        or perf_counter() - begin < args.seconds
        or (args.trace and len(reps) % 2)
    ):
        traced = bool(args.trace) and len(reps) % 2 == 1
        try:
            reps.append(run_rep(workload, args.seed, scale, ledger if traced else None, len(reps)))
        except Exception:  # a failed repetition is reported, not fatal
            reps.append({"traced": traced, "errors": [traceback.format_exc(limit=3)]})

    out = {
        "affinity": affinity,
        "numpy": numpy.__version__,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if ledger is not None:
        out["layers"] = ledger.totals()
        out["covered_s"] = ledger.covered_s
        out["plan_cache"] = [ledger.plan_cache_hits, ledger.plan_cache_lookups]
        if args.spans:
            out["spans"] = ledger.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
