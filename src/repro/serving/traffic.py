"""Open-loop arrival processes and the ``traffic:`` spec grammar.

The paper's measurement protocol is closed-loop (one image in flight); a
serving system faces the opposite regime — requests arrive whether or not
the cluster is ready for them.  This module supplies the arrival side of the
:mod:`repro.serving` simulator: a family of :class:`ArrivalProcess` models
covering the canonical traffic shapes

* :class:`PoissonArrivals` — memoryless steady load,
* :class:`MMPPArrivals` — bursty load (two-state Markov-modulated Poisson:
  long quiet stretches punctuated by high-rate bursts),
* :class:`DiurnalArrivals` — a smooth day/night cycle (inhomogeneous Poisson
  with a raised-cosine rate profile, realised by thinning),
* :class:`TraceArrivals` — replay of explicit arrival offsets (measured
  production traces),

plus the ``traffic:`` spec grammar (:func:`parse_traffic_spec`,
:func:`resolve_traffic`), written in the spec format the scenario
generator's ``gen:`` grammar also uses (:mod:`repro.utils.specs`), so CLI
users and serialised experiment configs name traffic the same way they name
fleets.

Determinism contract: :meth:`ArrivalProcess.arrival_times` is a pure function
of ``(spec fields, duration_s, start_s)`` — every call rebuilds its generator
from the stored seed, so the batched and the reference serving loops (and any
repeated run) observe the *identical* arrival sequence.

Where this sits in the stack is drawn in ``docs/architecture.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from repro.utils.specs import SpecGrammar, render_value

#: Prefix of traffic spec strings accepted by :func:`resolve_traffic`.
TRAFFIC_PREFIX = "traffic:"

#: Kinds the grammar understands (``bursty`` is an alias for ``mmpp``).
TRAFFIC_KINDS = ("poisson", "mmpp", "diurnal", "trace")

_USAGE = f"traffic:<kind>[,key=value...] with kind one of {sorted(TRAFFIC_KINDS)}"
_GRAMMAR = SpecGrammar(TRAFFIC_PREFIX, "traffic", usage=_USAGE, word_key="kind")


class ArrivalProcess:
    """Base class: a deterministic generator of open-loop arrival times."""

    def arrival_times(self, duration_s: float, start_s: float = 0.0) -> np.ndarray:
        """Absolute arrival times in ``[start_s, start_s + duration_s)``.

        Strictly increasing-or-equal (ties allowed for trace replays),
        float64, possibly empty.  Pure: repeated calls return identical
        arrays.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        offsets = self._offsets(float(duration_s))
        return float(start_s) + offsets

    def _offsets(self, duration_s: float) -> np.ndarray:
        raise NotImplementedError

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate (requests/second), for reporting."""
        raise NotImplementedError

    @property
    def spec(self) -> str:
        """Canonical ``traffic:`` spec string; ``parse_traffic_spec(spec)``
        rebuilds an equal process (the round-trip property tests assert it)."""
        raise NotImplementedError


def _exponential_gaps_until(rng: np.random.Generator, rate: float, duration_s: float) -> np.ndarray:
    """Cumulative exponential-gap arrival offsets in ``[0, duration_s)``."""
    if rate <= 0:
        return np.empty(0)
    pieces = []
    t = 0.0
    # Draw in chunks; expected count is rate * duration.  cumsum accumulates
    # in the same left-to-right order a scalar loop would, so the offsets are
    # a pure function of the draw sequence regardless of chunking.
    chunk = max(16, int(rate * duration_s * 1.2) + 8)
    while True:
        cum = t + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        cut = int(np.searchsorted(cum, duration_s, side="left"))
        pieces.append(cum[:cut])
        if cut < chunk:
            return np.concatenate(pieces)
        t = float(cum[-1])


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps`` requests/second."""

    rate_rps: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.rate_rps < math.inf):
            raise ValueError(f"rate_rps must be > 0 and finite, got {self.rate_rps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def _offsets(self, duration_s: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return _exponential_gaps_until(rng, self.rate_rps, duration_s)

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    @property
    def spec(self) -> str:
        return _GRAMMAR.render("poisson", rate=self.rate_rps, seed=self.seed)


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a *quiet* state (rate ``low_rps``, mean
    dwell ``dwell_low_s``) and a *burst* state (rate ``high_rps``, mean dwell
    ``dwell_high_s``); dwell times are exponential and the process starts
    quiet.  ``low_rps`` may be 0 (completely silent between bursts).
    """

    low_rps: float
    high_rps: float
    dwell_low_s: float = 20.0
    dwell_high_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.low_rps < 0:
            raise ValueError(f"low_rps must be >= 0, got {self.low_rps}")
        if self.high_rps <= self.low_rps:
            raise ValueError(
                f"high_rps must exceed low_rps, got low={self.low_rps} high={self.high_rps}"
            )
        if self.dwell_low_s <= 0 or self.dwell_high_s <= 0:
            raise ValueError(
                f"dwell times must be > 0, got {self.dwell_low_s}, {self.dwell_high_s}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def _offsets(self, duration_s: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        times = []
        t = 0.0
        burst = False
        while t < duration_s:
            dwell = rng.exponential(self.dwell_high_s if burst else self.dwell_low_s)
            end = min(t + dwell, duration_s)
            rate = self.high_rps if burst else self.low_rps
            if rate > 0:
                offsets = _exponential_gaps_until(rng, rate, end - t)
                times.extend(t + offsets)
            t = end
            burst = not burst
        return np.asarray(times)

    @property
    def mean_rate_rps(self) -> float:
        total = self.dwell_low_s + self.dwell_high_s
        return (self.low_rps * self.dwell_low_s + self.high_rps * self.dwell_high_s) / total

    @property
    def spec(self) -> str:
        return _GRAMMAR.render(
            "mmpp", low=self.low_rps, high=self.high_rps, dwell_low=self.dwell_low_s,
            dwell_high=self.dwell_high_s, seed=self.seed,
        )


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Inhomogeneous Poisson with a raised-cosine day/night rate profile.

    The instantaneous rate is ``base + (peak - base) * (1 - cos(2*pi*x)) / 2``
    where ``x`` is the fraction of ``period_s`` elapsed since the start of
    the run — the cycle starts at the trough (``base``), peaks halfway
    through the period, and is realised exactly by thinning a homogeneous
    Poisson stream at ``peak_rps``.
    """

    base_rps: float
    peak_rps: float
    period_s: float = 3600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_rps < 0:
            raise ValueError(f"base_rps must be >= 0, got {self.base_rps}")
        if self.peak_rps <= 0 or self.peak_rps < self.base_rps:
            raise ValueError(
                f"peak_rps must be positive and >= base_rps, got "
                f"base={self.base_rps} peak={self.peak_rps}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def rate_at(self, offset_s):
        """Instantaneous rate at ``offset_s`` seconds into the run (scalar or array)."""
        x = 2.0 * np.pi * (np.asarray(offset_s) / self.period_s)
        return self.base_rps + (self.peak_rps - self.base_rps) * 0.5 * (1.0 - np.cos(x))

    def _offsets(self, duration_s: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        candidates = _exponential_gaps_until(rng, self.peak_rps, duration_s)
        if candidates.size == 0:
            return candidates
        accept = rng.random(candidates.size) * self.peak_rps
        return candidates[accept < self.rate_at(candidates)]

    @property
    def mean_rate_rps(self) -> float:
        return (self.base_rps + self.peak_rps) / 2.0

    @property
    def spec(self) -> str:
        return _GRAMMAR.render(
            "diurnal", base=self.base_rps, peak=self.peak_rps, period=self.period_s, seed=self.seed
        )


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay of explicit arrival offsets (seconds from the run start).

    Offsets must be finite, non-negative and non-decreasing; arrivals
    beyond the simulated duration are dropped.
    """

    offsets_s: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        prev = 0.0
        for t in self.offsets_s:
            # First, or a NaN would pass both order checks below.
            if not math.isfinite(t):
                raise ValueError(f"trace offsets must all be finite, got {t}")
            if t < 0:
                raise ValueError(f"trace offsets must be >= 0, got {t}")
            if t < prev:
                raise ValueError(f"trace offsets must be non-decreasing, got {t} after {prev}")
            prev = t

    def _offsets(self, duration_s: float) -> np.ndarray:
        offsets = np.asarray(self.offsets_s, dtype=np.float64)
        return offsets[offsets < duration_s]

    @property
    def mean_rate_rps(self) -> float:
        if not self.offsets_s:
            return 0.0
        span = max(self.offsets_s[-1], 1e-9)
        return len(self.offsets_s) / span

    @property
    def spec(self) -> str:
        return _GRAMMAR.render("trace", times=";".join(map(render_value, self.offsets_s)))


# ---------------------------------------------------------------------- #
# the traffic: grammar
# ---------------------------------------------------------------------- #


def parse_traffic_spec(spec: str) -> ArrivalProcess:
    """Parse the ``traffic:`` grammar into an :class:`ArrivalProcess`.

    Grammar: ``traffic:<kind>[,key=value...]`` (the kind may also be given
    as ``kind=<kind>``), in the spec format of :mod:`repro.utils.specs`.

    ===========  ===============================================================
    kind         keys (defaults)
    ===========  ===============================================================
    ``poisson``  ``rate`` (1), ``seed`` (0)
    ``mmpp``     ``low`` (1), ``high`` (10), ``dwell_low`` (20), ``dwell_high``
                 (5), ``seed`` (0); alias kind: ``bursty``
    ``diurnal``  ``base`` (1), ``peak`` (10), ``period`` (3600), ``seed`` (0)
    ``trace``    ``times`` (required) — ``;``-separated offsets, e.g.
                 ``times=0.1;0.5;1.2``; ``times=`` is the empty replay
    ===========  ===============================================================

    Example: ``traffic:mmpp,low=0.5,high=20,dwell_high=3,seed=7``.
    """
    options = _GRAMMAR.options(spec)
    kind = options.pop("kind", None)
    if kind is None:
        raise ValueError(f"traffic spec {spec!r} names no kind; expected {_USAGE}")
    kind = kind.lower()
    if kind == "bursty":
        kind = "mmpp"
    number, integer = _GRAMMAR.number, _GRAMMAR.integer
    if kind == "poisson":
        _GRAMMAR.check_keys(options, ("rate", "seed"), kind)
        return PoissonArrivals(
            rate_rps=number(options, "rate", 1.0),
            seed=integer(options, "seed", 0),
        )
    if kind == "mmpp":
        _GRAMMAR.check_keys(options, ("low", "high", "dwell_low", "dwell_high", "seed"), kind)
        return MMPPArrivals(
            low_rps=number(options, "low", 1.0),
            high_rps=number(options, "high", 10.0),
            dwell_low_s=number(options, "dwell_low", 20.0),
            dwell_high_s=number(options, "dwell_high", 5.0),
            seed=integer(options, "seed", 0),
        )
    if kind == "diurnal":
        _GRAMMAR.check_keys(options, ("base", "peak", "period", "seed"), kind)
        return DiurnalArrivals(
            base_rps=number(options, "base", 1.0),
            peak_rps=number(options, "peak", 10.0),
            period_s=number(options, "period", 3600.0),
            seed=integer(options, "seed", 0),
        )
    if kind == "trace":
        _GRAMMAR.check_keys(options, ("times",), kind)
        if "times" not in options:
            raise ValueError("traffic:trace requires times=<t0;t1;...> (seconds)")
        raw = options["times"]
        if not raw:
            return TraceArrivals()  # the empty replay, rendered as `times=`
        try:
            offsets = tuple(float(part) for part in raw.split(";") if part.strip())
        except ValueError:
            raise ValueError(f"traffic:trace times={raw!r} contains a non-number") from None
        if not offsets:
            raise ValueError(
                f"traffic:trace times={raw!r} lists no offsets; it requires "
                "times=<t0;t1;...> (seconds), or times= for an empty replay"
            )
        if not all(math.isfinite(t) for t in offsets):
            raise ValueError(f"traffic:trace times={raw!r} must all be finite")
        return TraceArrivals(offsets_s=offsets)
    raise ValueError(
        f"unknown traffic kind {kind!r}; expected one of {sorted(TRAFFIC_KINDS)} "
        "(or the alias 'bursty')"
    )


def resolve_traffic(traffic: Union[str, ArrivalProcess]) -> ArrivalProcess:
    """Accept a ``traffic:`` spec string or an already-built process."""
    if isinstance(traffic, ArrivalProcess):
        return traffic
    return parse_traffic_spec(traffic)


__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "TRAFFIC_PREFIX",
    "TRAFFIC_KINDS",
    "parse_traffic_spec",
    "resolve_traffic",
]
