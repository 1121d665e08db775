"""The ``prefix:key=value,...`` spec format of ``gen:``, ``traffic:`` and ``churn:``.

A spec starts with its prefix; the rest splits on commas into
whitespace-stripped items, empty items skipped.  Each item is ``key=value``
(a grammar with a ``word_key`` also takes one bare leading word, so
``traffic:poisson`` is ``traffic:kind=poisson``); a key may be given once
and must be known.  Numbers are finite floats or integers, and a bad one is
a ``ValueError`` naming the grammar, the option and the raw text.  Rendered
specs write floats with ``repr``, so parsing one gives back the same float.
What is particular to one grammar (kinds, ``bw=50-300``, ``;`` lists) stays
in its own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Dict, Optional


def read_float(what: str, raw: str) -> float:
    """``raw`` as a finite float; ``what`` names it in errors."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{what}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{what}={raw!r} must be finite")
    return value


def read_int(what: str, raw: str) -> int:
    """``raw`` as an integer; ``what`` names it in errors."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{what}={raw!r} is not an integer") from None


def render_value(value: object) -> str:
    """Spec text of a value: floats by ``repr`` (exact round trip), the rest by ``str``."""
    return repr(float(value)) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class SpecGrammar:
    """One ``prefix:key=value,...`` grammar; ``name`` labels its errors."""

    prefix: str
    name: str
    usage: Optional[str] = None  # set: an empty spec is an error quoting it
    word_key: Optional[str] = None  # set: a bare leading word means word_key=<word>

    def options(self, spec: str) -> Dict[str, str]:
        """Split ``spec`` into its ``key -> raw value`` options, in spec order."""
        if not isinstance(spec, str) or not spec.startswith(self.prefix):
            raise ValueError(f"{self.name} spec must start with {self.prefix!r}, got {spec!r}")
        items = [item for item in (part.strip() for part in spec[len(self.prefix):].split(",")) if item]
        if not items and self.usage:
            raise ValueError(f"empty {self.name} spec {spec!r}; expected {self.usage}")
        options: Dict[str, str] = {}
        for i, item in enumerate(items):
            if "=" in item:
                key, value = (part.strip() for part in item.split("=", 1))
            elif i == 0 and self.word_key:
                key, value = self.word_key, item
            else:
                raise ValueError(f"malformed {self.name} option {item!r}; expected key=value")
            if key in options:
                raise ValueError(f"duplicate {self.name} option {key!r}: given more than once in {spec!r}")
            options[key] = value
        return options

    def check_keys(self, options: Dict[str, str], known: Collection[str], kind: str = "") -> None:
        """Reject every option not in ``known`` (the keys of ``kind``, when given)."""
        unknown = sorted(set(options) - set(known))
        if unknown:
            where = f" for kind {kind!r}" if kind else ""
            raise ValueError(f"unknown {self.name} option(s) {unknown}{where}; known: {sorted(known)}")

    def number(self, options: Dict[str, str], key: str, default: float) -> float:
        """Option ``key`` as a finite float, ``default`` when absent."""
        return default if key not in options else read_float(f"{self.name} option {key}", options[key])

    def integer(self, options: Dict[str, str], key: str, default: int) -> int:
        """Option ``key`` as an integer, ``default`` when absent."""
        return default if key not in options else read_int(f"{self.name} option {key}", options[key])

    def render(self, word: Optional[str] = None, /, **options: object) -> str:
        """``prefix[word,]key=value,...`` with each value in :func:`render_value` form."""
        items = [] if word is None else [word]
        return self.prefix + ",".join(items + [f"{k}={render_value(v)}" for k, v in options.items()])


__all__ = ["SpecGrammar", "read_float", "read_int", "render_value"]
