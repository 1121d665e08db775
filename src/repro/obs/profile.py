"""Wall-clock profiling hooks for the hot paths.

Unlike tracing and metrics — which live on the simulated clock and inside
the parity contract — a :class:`Profiler` measures **this machine's wall
time** with ``perf_counter`` and is explicitly *excluded* from parity:
two bit-identical runs will profile differently, and that is fine.  What
the profiler answers is *where the wall time of a run went*: plan
evaluation, the ``(batch, devices)`` sweep, array-engine epochs,
speculation rollbacks, memo and cache hit rates.

Hot-path integration contract: instrumented objects hold a ``profiler``
attribute defaulting to :data:`NULL_PROFILER`, and guard any non-trivial
work behind ``profiler.enabled`` — so the off state costs one attribute
check and the hot loops stay bit-identical (the profiler never touches
simulated values).

``Profiler.format_table()`` renders the summary ``repro ... --profile``
prints; ``snapshot()`` is the machine-readable form.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List


class Profiler:
    """Accumulates named wall-clock sections and hit counters."""

    enabled = True

    def __init__(self) -> None:
        #: section name -> [calls, total seconds]
        self.sections: Dict[str, List[float]] = {}
        #: counter name -> count
        self.counters: Dict[str, int] = {}

    @contextmanager
    def section(self, name: str):
        """Time a ``with`` block under ``name`` (accumulating)."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            entry = self.sections.get(name)
            if entry is None:
                self.sections[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record pre-measured time (for call sites that cannot nest a
        context manager)."""
        entry = self.sections.get(name)
        if entry is None:
            self.sections[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        """Bump a hit counter (cache hits, rollbacks, memo hits...)."""
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """Machine-readable dump: sections (calls, seconds) and counters."""
        return {
            "sections": {
                name: {"calls": int(calls), "total_s": float(total)}
                for name, (calls, total) in sorted(self.sections.items())
            },
            "counters": {
                name: int(value) for name, value in sorted(self.counters.items())
            },
        }

    def format_table(self) -> str:
        """Human-readable summary (what ``--profile`` prints)."""
        lines = ["profile (wall clock; excluded from parity)"]
        if self.sections:
            width = max(len(name) for name in self.sections)
            lines.append(f"  {'section'.ljust(width)}  {'calls':>8}  {'total':>10}  {'mean':>10}")
            for name, (calls, total) in sorted(
                self.sections.items(), key=lambda kv: -kv[1][1]
            ):
                mean_ms = total / calls * 1000.0 if calls else 0.0
                lines.append(
                    f"  {name.ljust(width)}  {int(calls):>8}  {total:>9.3f}s  {mean_ms:>8.3f}ms"
                )
        if self.counters:
            width = max(len(name) for name in self.counters)
            lines.append("  counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name.ljust(width)}  {value:>8}")
        if not self.sections and not self.counters:
            lines.append("  (no instrumented work ran)")
        return "\n".join(lines)


class _NullSection:
    """Reusable no-op context manager (no allocation per use)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SECTION = _NullSection()


class NullProfiler(Profiler):
    """The default profiler: every hook is a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.sections = {}
        self.counters = {}

    def section(self, name: str):
        return _NULL_SECTION

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass


#: Shared no-op profiler (stateless, safe to share everywhere).
NULL_PROFILER = NullProfiler()


__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER"]
