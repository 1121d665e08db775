"""Shared bench-gate bookkeeping for the ``BENCH_*.json`` artifact trail.

Every CI speedup gate (bench-planner, bench-osds, bench-serve, ...)
records its measurements in a ``BENCH_*.json`` file that CI prints and
uploads.  Some gates cannot always be enforced (bench-engine and bench-obs
need a committed, enforced baseline from another gate to compare against),
and a skipped run must never overwrite enforced numbers: the file keeps the last *enforced* result at top level and records
the skip — machine facts, reason, unenforced measurements — under
``skipped_run``, so the artifact trail cannot silently degrade into ungated
measurements.  CI distinguishes the two via ``last_run_enforced`` (did
*this* run enforce the gate?) versus ``gate_enforced`` (do the top-level
numbers come from an enforced run, possibly an earlier one?) and only
uploads artifacts whose gate actually ran.

This helper centralises that bookkeeping; benches call
:func:`record_gate_result` with their rows and whether this run enforced the
gate.

The module is also a tiny CLI for CI's guard step::

    python benchmarks/_gate.py check BENCH_serve.json   # prints true|false

prints the file's ``last_run_enforced`` flag (``false`` for a missing or
unreadable file), which the bench matrix job feeds into its conditional
artifact upload and the warn-only mode of the trend check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional


def record_gate_result(
    path: Path,
    rows: Dict,
    enforced: bool = True,
    skip_info: Optional[Dict] = None,
) -> Dict:
    """Write a bench result to ``path`` with skipped-gate retention.

    Parameters
    ----------
    path:
        The ``BENCH_*.json`` file.
    rows:
        This run's measurements (without the ``gate_enforced`` /
        ``last_run_enforced`` bookkeeping keys — they are added here).
    enforced:
        Whether this run enforced its speedup assertion.  Enforced runs
        replace the file wholesale; skipped runs only annotate it.
    skip_info:
        Machine facts and measurements of a skipped run (reason, CPU count,
        unenforced speedup...), recorded under ``skipped_run``.

    Returns the rows as written (for printing).
    """
    if enforced:
        out = {**rows, "gate_enforced": True, "last_run_enforced": True}
        path.write_text(json.dumps(out, indent=2) + "\n")
        return out
    skip = dict(skip_info or {})
    previous = None
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = None
    if previous is not None and previous.get("gate_enforced"):
        # Keep the last enforced result; only annotate the skip.
        previous["skipped_run"] = skip
        previous["last_run_enforced"] = False
        path.write_text(json.dumps(previous, indent=2) + "\n")
        return previous
    # No enforced numbers to keep: a file whose top level says
    # gate_enforced: false carries none at all and is not uploaded by CI.
    out = {"gate_enforced": False, "last_run_enforced": False, "skipped_run": skip}
    path.write_text(json.dumps(out, indent=2) + "\n")
    return out


def last_run_enforced(path: Path) -> bool:
    """Whether ``path``'s most recent bench run enforced its gate.

    Missing, unreadable or malformed files report ``False`` — CI treats
    that exactly like a skipped gate (no artifact upload, warn-only trend).
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return False
    return bool(isinstance(data, dict) and data.get("last_run_enforced"))


def main(argv) -> int:
    if len(argv) != 2 or argv[0] != "check":
        print("usage: python benchmarks/_gate.py check BENCH_x.json", file=sys.stderr)
        return 2
    print("true" if last_run_enforced(Path(argv[1])) else "false")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))


__all__ = ["record_gate_result", "last_run_enforced"]
