"""Per-layer wall-time ledger for the traced pass of the end-to-end benchmark.

The ledger wraps each layer's public entry point (a method on a class, or a
module-level function rebound in every module that imported it by name) in
a span: name, start, end, parent span and repetition.  Per layer it keeps
``calls``, ``busy_s`` (wall time inside the layer, counted once under
recursion) and ``self_s`` (``busy_s`` minus the time covered by child
spans).  Spans stay in memory until the benchmark writes them out; a layer
records at most :data:`SPAN_CAP` spans per repetition and only counts the
rest, so hot leaves such as the network transfer model cost a counter, not
an allocation.

Nothing here runs unless :meth:`Ledger.install` is called, and
:meth:`Ledger.uninstall` restores every original, so untraced repetitions
execute the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Dict, List, Tuple

#: Layer metric name -> (defining module, attribute path).  Names follow
#: ``<module>.<function>`` relative to the ``repro`` package.
LAYERS: Dict[str, Tuple[str, str]] = {
    "core.partitioner.LCPSS.search": ("repro.core.partitioner", "LCPSS.search"),
    "nn.splitting.split_volume": ("repro.nn.splitting", "split_volume"),
    "core.osds.OSDS.run": ("repro.core.osds", "OSDS.run"),
    "core.mdp.SplitMDP.step": ("repro.core.mdp", "SplitMDP.step"),
    "core.mdp.BatchSplitMDP.step": ("repro.core.mdp", "BatchSplitMDP.step"),
    "core.ddpg.DDPGAgent.update": ("repro.core.ddpg", "DDPGAgent.update"),
    "core.networks.MLP.forward": ("repro.core.networks", "MLP.forward"),
    "core.networks.MLP.backward": ("repro.core.networks", "MLP.backward"),
    "core.networks.Adam.step": ("repro.core.networks", "Adam.step"),
    "runtime.batch.BatchPlanEvaluator.evaluate_plans": (
        "repro.runtime.batch",
        "BatchPlanEvaluator.evaluate_plans",
    ),
    "runtime.evaluator.PlanEvaluator.process_volume": (
        "repro.runtime.evaluator",
        "PlanEvaluator.process_volume",
    ),
    "runtime.plan.redistribution_bytes": ("repro.runtime.plan", "redistribution_bytes"),
    "network.NetworkModel.transfer_latency_ms": (
        "repro.network.topology",
        "NetworkModel.transfer_latency_ms",
    ),
    "runtime.contention.ContentionAwareEvaluator.predict": (
        "repro.runtime.contention",
        "ContentionAwareEvaluator.predict",
    ),
    "serving.simulator.ServingSimulator.run": ("repro.serving.simulator", "ServingSimulator.run"),
    "serving.engine.ArrayServingEngine.run": ("repro.serving.engine", "ArrayServingEngine.run"),
    "serving.traffic.ArrivalProcess.arrival_times": (
        "repro.serving.traffic",
        "ArrivalProcess.arrival_times",
    ),
    "obs.trace.Tracer.to_chrome": ("repro.obs.trace", "Tracer.to_chrome"),
    "obs.analysis.analyze_serving": ("repro.obs.analysis", "analyze_serving"),
    "obs.slo.SLOMonitor.evaluate": ("repro.obs.slo", "SLOMonitor.evaluate"),
    "obs.metrics.record_serving_report": ("repro.obs.metrics", "record_serving_report"),
}

#: Spans kept per layer per repetition; calls beyond it are only counted.
SPAN_CAP = 10_000


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "active", "recorded")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0
        #: Spans recorded in the current repetition.
        self.recorded = 0


class Ledger:
    """Span/counter recorder for the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.layers = {name: _Layer() for name in LAYERS}
        #: (layer, start_s, end_s, parent span index or -1, rep) per span.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        #: Wall time covered by outermost spans (no traced ancestor).
        self.covered_s = 0.0
        self.rep = 0
        #: Plan-cache lookups of the BatchPlanEvaluators built while installed.
        self.plan_cache_hits = 0
        self.plan_cache_lookups = 0
        self._evaluators: List = []
        # One frame per open call: [child time, span index inherited by children].
        self._stack: List[List] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn):
        layer = self.layers[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if layer.recorded < SPAN_CAP:
                # Reserve the span's slot now so children can name it.
                layer.recorded += 1
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [0.0, parent if index < 0 else index]
            stack.append(frame)
            layer.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                layer.active -= 1
                duration = end - start
                layer.calls += 1
                layer.self_time += duration - frame[0]
                if not layer.active:
                    layer.busy += duration
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered_s += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent, self.rep)

        return traced

    def install(self, rep: int) -> None:
        """Patch every layer entry point for repetition ``rep``."""
        self.rep = rep
        for layer in self.layers.values():
            layer.recorded = 0
        for name, (module_name, attr_path) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, method = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            traced = self._wrap(name, original)
            # Rebind in every module holding the function by name, so calls
            # through `from module import function` are traced too.
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if namespace is not None and namespace.get(attr_path) is original:
                    self._restore.append((holder, attr_path, original))
                    setattr(holder, attr_path, traced)
        self._track_evaluators()

    def _track_evaluators(self) -> None:
        from repro.runtime.batch import BatchPlanEvaluator

        original = BatchPlanEvaluator.__dict__["__init__"]
        created = self._evaluators

        def init(evaluator, *args, **kwargs):
            original(evaluator, *args, **kwargs)
            created.append(evaluator)

        self._restore.append((BatchPlanEvaluator, "__init__", original))
        BatchPlanEvaluator.__init__ = init

    def uninstall(self) -> None:
        """Restore every original and harvest the repetition's plan-cache counters."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for evaluator in self._evaluators:
            info = evaluator.cache_info()
            self.plan_cache_hits += info["hits"]
            self.plan_cache_lookups += info["hits"] + info["misses"]
        self._evaluators.clear()

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Layer -> (calls, busy_s, self_s) accumulated so far."""
        return {
            name: (layer.calls, layer.busy, layer.self_time)
            for name, layer in self.layers.items()
        }
