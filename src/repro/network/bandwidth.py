"""WiFi throughput traces.

Three trace families reproduce the network conditions of the paper:

* :class:`ConstantTrace` — an idealised fixed-throughput link (useful in
  unit tests and for isolating compute effects).
* :class:`WiFiTrace` — a shaped WiFi link at a nominal bandwidth with the
  small fluctuation visible in Fig. 4 (a few percent around the nominal
  value, varying on a seconds time-scale).
* :class:`DynamicTrace` — the highly dynamic traces of Fig. 12: throughput
  wanders between roughly 40 and 100 Mbps with large minute-scale swings.

All traces are deterministic functions of their seed, so planners and the
runtime observe identical conditions across repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive


#: Trace families :func:`make_trace` builds.
TRACE_KINDS = ("constant", "wifi", "dynamic")


class BandwidthTrace:
    """Interface: instantaneous throughput (Mbps) as a function of time (s)."""

    #: Nominal bandwidth (Mbps); used by planners that only look at the mean.
    nominal_mbps: float = 0.0

    def throughput_mbps(self, t_seconds: float) -> float:
        """Instantaneous throughput at time ``t_seconds``."""
        raise NotImplementedError

    def throughput_mbps_array(self, t_seconds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`throughput_mbps` over an array of times.

        Bit-exact to the scalar method element for element (the array
        serving engine's speculation verifier depends on that); subclasses
        override with a true array evaluation, this fallback just loops.
        """
        return np.array([self.throughput_mbps(float(t)) for t in t_seconds])

    def mean_mbps(self, t_start: float = 0.0, t_end: float = 3600.0, samples: int = 361) -> float:
        """Mean throughput over a window (simple uniform sampling)."""
        ts = np.linspace(t_start, t_end, samples)
        return float(np.mean([self.throughput_mbps(float(t)) for t in ts]))

    def sample(self, t_start: float, t_end: float, step_seconds: float) -> np.ndarray:
        """Sample the trace on a regular grid; returns an ``(N, 2)`` array of
        ``(time_s, mbps)`` rows (handy for plotting Fig. 4 / Fig. 12)."""
        ts = np.arange(t_start, t_end + 1e-9, step_seconds)
        vals = np.array([self.throughput_mbps(float(t)) for t in ts])
        return np.column_stack([ts, vals])


@dataclass
class ConstantTrace(BandwidthTrace):
    """A perfectly stable link at ``mbps``."""

    mbps: float

    def __post_init__(self) -> None:
        check_positive(self.mbps, "mbps")
        self.nominal_mbps = float(self.mbps)

    def throughput_mbps(self, t_seconds: float) -> float:
        return float(self.mbps)

    def throughput_mbps_array(self, t_seconds: np.ndarray) -> np.ndarray:
        return np.full(len(t_seconds), float(self.mbps))


@dataclass
class WiFiTrace(BandwidthTrace):
    """A shaped WiFi link with small stochastic fluctuation (Fig. 4).

    The fluctuation is a smooth mean-reverting (AR(1)) process sampled once
    per ``slot_seconds`` and linearly interpolated, with relative standard
    deviation ``rel_std`` and a hard floor at 50% of nominal — matching the
    narrow bands visible in the paper's sampled traces.
    """

    mbps: float
    rel_std: float = 0.04
    slot_seconds: float = 10.0
    duration_seconds: float = 3600.0
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive(self.mbps, "mbps")
        check_positive(self.slot_seconds, "slot_seconds")
        check_positive(self.duration_seconds, "duration_seconds")
        if self.rel_std < 0:
            raise ValueError(f"rel_std must be >= 0, got {self.rel_std}")
        self.nominal_mbps = float(self.mbps)
        rng = as_rng(self.seed)
        n = int(np.ceil(self.duration_seconds / self.slot_seconds)) + 2
        # AR(1) around 0 with coefficient 0.8, scaled to the requested std.
        innovations = rng.normal(0.0, 1.0, size=n)
        ar = np.zeros(n)
        for i in range(1, n):
            ar[i] = 0.8 * ar[i - 1] + innovations[i] * np.sqrt(1 - 0.8**2)
        values = self.mbps * (1.0 + self.rel_std * ar)
        self._grid = np.arange(n) * self.slot_seconds
        self._values = np.clip(values, 0.5 * self.mbps, 1.15 * self.mbps)

    def throughput_mbps(self, t_seconds: float) -> float:
        t = float(np.clip(t_seconds, 0.0, self._grid[-1]))
        return float(np.interp(t, self._grid, self._values))

    def throughput_mbps_array(self, t_seconds: np.ndarray) -> np.ndarray:
        ts = np.clip(np.asarray(t_seconds, dtype=np.float64), 0.0, self._grid[-1])
        return np.interp(ts, self._grid, self._values)


@dataclass
class DynamicTrace(BandwidthTrace):
    """A highly dynamic link (Fig. 12): large swings between ``low`` and ``high``.

    Constructed as a bounded random walk sampled once per ``slot_seconds``
    (default one minute, matching the paper's time-slot granularity), with
    occasional large jumps so that the *average* throughput over a long
    window also shifts — the situation that forces AOFL and DistrEdge to
    re-plan partition locations online.
    """

    low_mbps: float = 40.0
    high_mbps: float = 100.0
    slot_seconds: float = 60.0
    duration_seconds: float = 3600.0
    jump_probability: float = 0.15
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive(self.low_mbps, "low_mbps")
        check_positive(self.high_mbps, "high_mbps")
        if self.high_mbps <= self.low_mbps:
            raise ValueError("high_mbps must exceed low_mbps")
        check_positive(self.slot_seconds, "slot_seconds")
        check_positive(self.duration_seconds, "duration_seconds")
        rng = as_rng(self.seed)
        n = int(np.ceil(self.duration_seconds / self.slot_seconds)) + 2
        span = self.high_mbps - self.low_mbps
        values = np.empty(n)
        values[0] = rng.uniform(self.low_mbps, self.high_mbps)
        for i in range(1, n):
            if rng.random() < self.jump_probability:
                values[i] = rng.uniform(self.low_mbps, self.high_mbps)
            else:
                step = rng.normal(0.0, 0.15 * span)
                values[i] = np.clip(values[i - 1] + step, self.low_mbps, self.high_mbps)
        self._grid = np.arange(n) * self.slot_seconds
        self._values = values
        self.nominal_mbps = float(values.mean())

    def throughput_mbps(self, t_seconds: float) -> float:
        t = float(np.clip(t_seconds, 0.0, self._grid[-1]))
        return float(np.interp(t, self._grid, self._values))

    def throughput_mbps_array(self, t_seconds: np.ndarray) -> np.ndarray:
        ts = np.clip(np.asarray(t_seconds, dtype=np.float64), 0.0, self._grid[-1])
        return np.interp(ts, self._grid, self._values)


def make_trace(
    mbps: float,
    kind: str = "wifi",
    seed: SeedLike = 0,
    **kwargs,
) -> BandwidthTrace:
    """Factory: build a trace of the requested ``kind`` at nominal ``mbps``.

    ``kind`` is one of ``"constant"``, ``"wifi"`` or ``"dynamic"`` (for
    dynamic traces ``mbps`` sets the midpoint of the 40-100 style band).
    """
    if kind == "constant":
        return ConstantTrace(mbps=mbps)
    if kind == "wifi":
        return WiFiTrace(mbps=mbps, seed=seed, **kwargs)
    if kind == "dynamic":
        half_span = kwargs.pop("half_span_mbps", 30.0)
        return DynamicTrace(
            low_mbps=max(mbps - half_span, 1.0),
            high_mbps=mbps + half_span,
            seed=seed,
            **kwargs,
        )
    raise ValueError(f"unknown trace kind {kind!r}; expected {'|'.join(TRACE_KINDS)}")


__all__ = [
    "BandwidthTrace",
    "ConstantTrace",
    "WiFiTrace",
    "DynamicTrace",
    "TRACE_KINDS",
    "make_trace",
]
