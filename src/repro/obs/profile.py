"""Host-time profiler: calls, busy time and self time per declared layer.

Unlike tracing and metrics — which live on the simulated clock and inside
the parity contract — a :class:`Profiler` measures **this machine's wall
time** and is explicitly *excluded* from parity: two bit-identical runs will
profile differently, and that is fine.  What the profiler answers is *where
the wall time of one command went*.

No source carries a profiling hook.  For the length of a ``with Profiler()``
block the profiler wraps every entry point in :data:`LAYERS` — a method on a
class, or a module-level function rebound in every module that imported it
by name — and on exit it restores every original, also when the block
raises.  With ``--profile`` off nothing is installed, so the hot paths run
exactly as shipped.

Per layer it keeps ``calls``, busy time (wall time inside the layer, counted
once under recursion) and self time (busy time minus the time spent in
wrapped children).  :meth:`Profiler.format_table` renders what
``repro ... --profile`` prints: a row per layer that ran, the total of the
``with`` block and the part of it that no layer covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Dict, List, Tuple

#: The timed entry points: (module, ``"Class.method"`` or ``"function"``).
#: A layer's name is ``<module>.<attribute>`` relative to the ``repro``
#: package.  The first block is the end-to-end benchmark ledger's table,
#: name for name, so a ``--profile`` row and a ledger row mean the same thing.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.partitioner", "LCPSS.search"),
    ("repro.nn.splitting", "split_volume"),
    ("repro.core.osds", "OSDS.run"),
    ("repro.core.mdp", "SplitMDP.step"),
    ("repro.core.mdp", "BatchSplitMDP.step"),
    ("repro.core.ddpg", "DDPGAgent.update"),
    ("repro.core.networks", "MLP.forward"),
    ("repro.core.networks", "MLP.backward"),
    ("repro.core.networks", "Adam.step"),
    ("repro.runtime.batch", "BatchPlanEvaluator.evaluate_plans"),
    ("repro.runtime.evaluator", "PlanEvaluator.process_volume"),
    ("repro.runtime.plan", "redistribution_bytes"),
    ("repro.network", "NetworkModel.transfer_latency_ms"),
    ("repro.runtime.contention", "ContentionAwareEvaluator.predict"),
    ("repro.serving.simulator", "ServingSimulator.run"),
    ("repro.serving.engine", "ArrayServingEngine.run"),
    ("repro.serving.traffic", "ArrivalProcess.arrival_times"),
    ("repro.obs.trace", "Tracer.to_chrome"),
    ("repro.obs.analysis", "analyze_serving"),
    ("repro.obs.slo", "SLOMonitor.evaluate"),
    ("repro.obs.metrics", "record_serving_report"),
    # The planner stages, the baseline searches, the final plan
    # evaluation, the comparison harness and the contended schedule walk.
    ("repro.core.distredge", "DistrEdge.partition"),
    ("repro.core.distredge", "DistrEdge.split"),
    ("repro.baselines.coedge", "CoEdgePlanner.plan"),
    ("repro.baselines.modnn", "MoDNNPlanner.plan"),
    ("repro.baselines.mednn", "MeDNNPlanner.plan"),
    ("repro.baselines.deepthings", "DeepThingsPlanner.plan"),
    ("repro.baselines.deeperthings", "DeeperThingsPlanner.plan"),
    ("repro.baselines.aofl", "AOFLPlanner.plan"),
    ("repro.baselines.offload", "OffloadPlanner.plan"),
    ("repro.runtime.evaluator", "PlanEvaluator.evaluate"),
    ("repro.experiments.harness", "ExperimentHarness.compare"),
    ("repro.runtime.contention", "ContentionAwareEvaluator._schedule"),
)


def layer_name(module_name: str, attr_path: str) -> str:
    """The row name of a :data:`LAYERS` entry."""
    return f"{module_name.partition('.')[2]}.{attr_path}"


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class Profiler:
    """Context manager timing the entry points of :data:`LAYERS`.

    A profiler may be entered more than once; its figures accumulate.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, _Layer] = {}
        #: Wall time inside the ``with`` blocks.
        self.total_s = 0.0
        #: Wall time covered by outermost layer calls (no wrapped caller).
        self.covered_s = 0.0
        #: Counters the command already records (filled by the caller,
        #: printed under the rows); the profiler itself counts only calls.
        self.counters: Dict[str, int] = {}
        # Time spent in wrapped children, one entry per open call.
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._start = 0.0

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn):
        layer = self.layers.setdefault(name, _Layer())
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            layer.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                layer.active -= 1
                layer.calls += 1
                layer.self_time += duration - children
                if not layer.active:
                    layer.busy += duration
                if stack:
                    stack[-1] += duration
                else:
                    self.covered_s += duration

        return timed

    def _install(self) -> None:
        for module_name, attr_path in LAYERS:
            name = layer_name(module_name, attr_path)
            module = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, method = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            timed = self._wrap(name, original)
            # Rebind in every module holding the function by name, so calls
            # through `from module import function` are timed too.
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if namespace is not None and namespace.get(attr_path) is original:
                    self._restore.append((holder, attr_path, original))
                    setattr(holder, attr_path, timed)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Profiler":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.total_s += perf_counter() - self._start
        self._uninstall()
        return False

    # ------------------------------------------------------------------ #
    def calls(self, name: str) -> int:
        """Calls of layer ``name`` so far (0 if it never ran)."""
        layer = self.layers.get(name)
        return layer.calls if layer is not None else 0

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Layer -> (calls, busy_s, self_s) for every layer that ran."""
        return {
            name: (layer.calls, layer.busy, layer.self_time)
            for name, layer in self.layers.items()
            if layer.calls
        }

    def format_table(self) -> str:
        """Human-readable summary (what ``--profile`` prints)."""
        rows = sorted(self.totals().items(), key=lambda kv: -kv[1][1])
        width = max([len(name) for name, _ in rows] + [len("not in any layer")])
        lines = [
            "profile (host wall clock; excluded from parity)",
            f"  {'layer'.ljust(width)}  {'calls':>8}  {'busy':>10}  {'self':>10}",
        ]
        for name, (calls, busy, self_s) in rows:
            lines.append(f"  {name.ljust(width)}  {calls:>8}  {busy:>9.3f}s  {self_s:>9.3f}s")
        if not rows:
            lines.append("  (no layer ran)")
        lines.append(f"  {'total'.ljust(width)}  {'':>8}  {self.total_s:>9.3f}s")
        uncovered = self.total_s - self.covered_s
        lines.append(f"  {'not in any layer'.ljust(width)}  {'':>8}  {uncovered:>9.3f}s")
        if self.counters:
            lines.append("  counters:")
            for name, value in self.counters.items():
                lines.append(f"  {name.ljust(width)}  {value:>8}")
        return "\n".join(lines)


__all__ = ["LAYERS", "Profiler", "layer_name"]
