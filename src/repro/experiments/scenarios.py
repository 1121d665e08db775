"""Scenario catalogue: the device/bandwidth groups of the paper, plus a
procedural generator for large-scale fleets.

Table I (heterogeneous device types), Table II (heterogeneous bandwidths),
Table III (large-scale, 16 providers), plus the homogeneous environment used
by the alpha study (Fig. 5a).  A :class:`Scenario` is a declarative
description; :meth:`Scenario.build` materialises the provider list and the
network model so harness code never hand-assembles clusters.

Beyond the paper's catalogue, :func:`generate_scenario` produces seeded
random fleets (16-64+ heterogeneous devices) for scaling experiments, and
:func:`resolve_scenario` turns either a catalogue name or a ``gen:`` spec
string (the CLI grammar, e.g. ``gen:n=32,seed=7,bw=50-300,types=mixed``,
in the spec format of :mod:`repro.utils.specs`) into a :class:`Scenario`.
Named scenarios flow through a :class:`ScenarioRegistry`, which refuses to
let two different scenarios silently share one name — repeated :meth:`Scenario.with_bandwidth` /
:meth:`Scenario.with_device_type` derivations can otherwise collide.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.devices.specs import DEVICE_CATALOG, DeviceInstance, make_cluster
from repro.network.bandwidth import TRACE_KINDS
from repro.network.topology import NetworkModel
from repro.utils.rng import SeedLike, as_rng
from repro.utils.specs import SpecGrammar, read_float

#: (device type, bandwidth in Mbps) pair.
DeviceSpec = Tuple[str, float]


@dataclass(frozen=True)
class Scenario:
    """A named deployment: providers with their nominal bandwidths."""

    name: str
    device_specs: Tuple[DeviceSpec, ...]
    description: str = ""
    trace_kind: str = "constant"  # "constant", "wifi" or "dynamic"

    @property
    def num_devices(self) -> int:
        return len(self.device_specs)

    @property
    def device_types(self) -> List[str]:
        return [t for t, _ in self.device_specs]

    @property
    def bandwidths_mbps(self) -> List[float]:
        return [b for _, b in self.device_specs]

    def with_bandwidth(self, mbps: float, suffix: Optional[str] = None) -> "Scenario":
        """Same devices, every link re-shaped to ``mbps`` (Fig. 7's 50/300 sweep)."""
        specs = tuple((t, float(mbps)) for t, _ in self.device_specs)
        name = f"{self.name}-{suffix or f'{mbps:g}Mbps'}"
        return Scenario(
            name=name,
            device_specs=specs,
            description=f"{self.description} @ {mbps:g} Mbps",
            trace_kind=self.trace_kind,
        )

    def with_device_type(self, device_type: str, suffix: Optional[str] = None) -> "Scenario":
        """Same bandwidths, every provider replaced by ``device_type`` (Fig. 8)."""
        specs = tuple((device_type, b) for _, b in self.device_specs)
        name = f"{self.name}-{suffix or device_type}"
        return Scenario(
            name=name,
            device_specs=specs,
            description=f"{self.description} on {device_type}",
            trace_kind=self.trace_kind,
        )

    def surviving(self, live: "Sequence[int]", suffix: str = "survivors") -> "Scenario":
        """Post-churn fleet: only the providers whose indices are in ``live``.

        Pairs with :meth:`repro.runtime.faults.FaultTrace.live_indices` so
        capacity planning and re-planning can run against the fleet a churn
        trace actually leaves, rather than the nominal one it started with.
        """
        keep = sorted({int(i) for i in live})
        if not keep:
            raise ValueError("a surviving scenario needs at least one live device")
        bad = [i for i in keep if not 0 <= i < len(self.device_specs)]
        if bad:
            raise ValueError(
                f"live indices out of range for {self.num_devices} devices: {bad}"
            )
        specs = tuple(self.device_specs[i] for i in keep)
        return Scenario(
            name=f"{self.name}-{suffix}",
            device_specs=specs,
            description=f"{self.description} ({len(keep)}/{self.num_devices} survivors)",
            trace_kind=self.trace_kind,
        )

    @classmethod
    def adhoc(
        cls,
        device_specs: Sequence[DeviceSpec],
        name: str = "adhoc",
        trace_kind: str = "constant",
    ) -> "Scenario":
        """Wrap an ad-hoc ``(type, bandwidth)`` list (e.g. a CLI ``--devices``
        cluster) so it can flow through scenario-based machinery."""
        specs = tuple((t, float(b)) for t, b in device_specs)
        return cls(
            name=name,
            device_specs=specs,
            description=f"ad-hoc cluster of {len(specs)} providers",
            trace_kind=trace_kind,
        )

    def build(
        self, seed: SeedLike = 0, trace_kind: Optional[str] = None
    ) -> Tuple[List[DeviceInstance], NetworkModel]:
        """Materialise the provider list and the network model."""
        devices = make_cluster(list(self.device_specs))
        kind = trace_kind or self.trace_kind
        if kind == "constant":
            network = NetworkModel.constant_from_devices(devices)
        else:
            network = NetworkModel.from_devices(devices, kind=kind, seed=seed)
        return devices, network


def _repeat(pattern: Sequence[DeviceSpec], times: int) -> Tuple[DeviceSpec, ...]:
    return tuple(pattern) * times


class ScenarioCatalog:
    """All named scenarios used in the paper's evaluation."""

    DEFAULT_BANDWIDTH = 200.0

    # ------------------------------------------------------------------ #
    # Table I: heterogeneous device types (bandwidth applied per experiment)
    # ------------------------------------------------------------------ #
    @staticmethod
    def table1_groups(bandwidth_mbps: float = 200.0) -> Dict[str, Scenario]:
        """Groups DA / DB / DC of Table I at a common bandwidth."""
        b = float(bandwidth_mbps)
        return {
            "DA": Scenario(
                "DA",
                (("tx2", b), ("tx2", b), ("nano", b), ("nano", b)),
                "TX2 x2 + Nano x2 (Table I)",
            ),
            "DB": Scenario(
                "DB",
                (("xavier", b), ("xavier", b), ("nano", b), ("nano", b)),
                "Xavier x2 + Nano x2 (Table I)",
            ),
            "DC": Scenario(
                "DC",
                (("xavier", b), ("tx2", b), ("nano", b), ("pi3", b)),
                "Xavier + TX2 + Nano + Pi3 (Table I)",
            ),
        }

    # ------------------------------------------------------------------ #
    # Table II: heterogeneous bandwidths (device type applied per experiment)
    # ------------------------------------------------------------------ #
    @staticmethod
    def table2_groups(device_type: str = "nano") -> Dict[str, Scenario]:
        """Groups NA / NB / NC / ND of Table II for one device type."""
        d = device_type
        return {
            "NA": Scenario(
                "NA", ((d, 50), (d, 50), (d, 200), (d, 200)), "50x2 + 200x2 Mbps (Table II)"
            ),
            "NB": Scenario(
                "NB", ((d, 100), (d, 100), (d, 200), (d, 200)), "100x2 + 200x2 Mbps (Table II)"
            ),
            "NC": Scenario(
                "NC", ((d, 200), (d, 200), (d, 300), (d, 300)), "200x2 + 300x2 Mbps (Table II)"
            ),
            "ND": Scenario(
                "ND", ((d, 50), (d, 100), (d, 200), (d, 300)), "50+100+200+300 Mbps (Table II)"
            ),
        }

    # ------------------------------------------------------------------ #
    # Table III: large-scale groups (16 providers)
    # ------------------------------------------------------------------ #
    @staticmethod
    def table3_groups() -> Dict[str, Scenario]:
        """Groups LA / LB / LC / LD of Table III (16 service providers)."""
        return {
            "LA": Scenario(
                "LA",
                _repeat((("nano", 300), ("nano", 200), ("nano", 100), ("nano", 50)), 4),
                "{(300,Nano),(200,Nano),(100,Nano),(50,Nano)} x4 (Table III)",
            ),
            "LB": Scenario(
                "LB",
                _repeat((("pi3", 300), ("nano", 200), ("tx2", 100), ("xavier", 50)), 4),
                "{(300,Pi3),(200,Nano),(100,TX2),(50,Xavier)} x4 (Table III)",
            ),
            "LC": Scenario(
                "LC",
                _repeat((("pi3", 200), ("nano", 200), ("tx2", 200), ("xavier", 200)), 4),
                "{(200,Pi3),(200,Nano),(200,TX2),(200,Xavier)} x4 (Table III)",
            ),
            "LD": Scenario(
                "LD",
                _repeat((("pi3", 50), ("nano", 100), ("tx2", 200), ("xavier", 300)), 4),
                "{(50,Pi3),(100,Nano),(200,TX2),(300,Xavier)} x4 (Table III)",
            ),
        }

    # ------------------------------------------------------------------ #
    # Fig. 5: the four environments of the alpha study
    # ------------------------------------------------------------------ #
    @staticmethod
    def homogeneous(device_type: str = "nano", bandwidth_mbps: float = 200.0, count: int = 4) -> Scenario:
        """Homogeneous providers at a single bandwidth (Fig. 5a)."""
        return Scenario(
            f"homog-{device_type}-{bandwidth_mbps:g}",
            tuple((device_type, float(bandwidth_mbps)) for _ in range(count)),
            f"{count} x {device_type} @ {bandwidth_mbps:g} Mbps",
        )

    # ------------------------------------------------------------------ #
    # Fig. 12/13: highly dynamic network on four Nanos
    # ------------------------------------------------------------------ #
    @staticmethod
    def dynamic_nano(count: int = 4, mid_mbps: float = 70.0) -> Scenario:
        """Four Nano providers on highly dynamic 40-100 Mbps links (Fig. 12)."""
        return Scenario(
            "dynamic-nano",
            tuple(("nano", float(mid_mbps)) for _ in range(count)),
            "Nano x4 under highly dynamic throughput (Section V-F)",
            trace_kind="dynamic",
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def all_named(cls) -> Dict[str, Scenario]:
        """Every scenario the benchmark suite may reference, keyed by name.

        Built through a :class:`ScenarioRegistry`, so a future catalogue
        change that makes two different scenarios share a name fails loudly
        here instead of silently shadowing one of them.
        """
        registry = ScenarioRegistry()
        for scenario in cls.table1_groups().values():
            registry.register(scenario)
        for key, scenario in cls.table2_groups("nano").items():
            registry.register(scenario, name=f"{key}-nano")
        for key, scenario in cls.table2_groups("xavier").items():
            registry.register(scenario, name=f"{key}-xavier")
        for scenario in cls.table3_groups().values():
            registry.register(scenario)
        registry.register(cls.homogeneous(), name="homog-nano")
        registry.register(cls.dynamic_nano())
        return registry.as_dict()


class ScenarioRegistry:
    """Name -> :class:`Scenario` registry that refuses silent collisions.

    Repeated :meth:`Scenario.with_bandwidth` / :meth:`Scenario.with_device_type`
    derivations (or two :meth:`ScenarioCatalog.homogeneous` calls with
    different ``count``) can produce *different* scenarios under the *same*
    name; a plain dict would silently keep whichever was inserted last.  The
    registry makes the collision explicit: re-registering an equal scenario is
    an idempotent no-op, while a different scenario under a taken name either
    raises ``ValueError`` or — with ``uniquify=True`` — is renamed with the
    first free ``-2``/``-3``/... suffix.
    """

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(
        self,
        scenario: Scenario,
        name: Optional[str] = None,
        uniquify: bool = False,
    ) -> Scenario:
        """Register ``scenario`` (optionally under ``name``); returns the
        scenario as registered, which may carry a uniquified name."""
        if name is not None and name != scenario.name:
            scenario = replace(scenario, name=name)
        existing = self._scenarios.get(scenario.name)
        if existing is not None:
            if existing == scenario:
                return existing
            if not uniquify:
                raise ValueError(
                    f"scenario name {scenario.name!r} is already registered for a "
                    f"different scenario ({existing.num_devices} devices, "
                    f"{existing.description!r}); pass uniquify=True to rename, or "
                    "derive with an explicit suffix"
                )
            base = scenario.name
            counter = 2
            while True:
                candidate = f"{base}-{counter}"
                taken = self._scenarios.get(candidate)
                if taken is None or taken == replace(scenario, name=candidate):
                    scenario = replace(scenario, name=candidate)
                    break
                counter += 1
            if scenario.name in self._scenarios:
                return self._scenarios[scenario.name]
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {sorted(self._scenarios)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[str]:
        return iter(self._scenarios)

    def as_dict(self) -> Dict[str, Scenario]:
        """Snapshot copy of the registered scenarios."""
        return dict(self._scenarios)


# ---------------------------------------------------------------------- #
# procedural large-scale scenario generation
# ---------------------------------------------------------------------- #

#: Named device-type pools for the generator's heterogeneity knob.
TYPE_POOLS: Dict[str, Tuple[str, ...]] = {
    "mixed": ("pi3", "nano", "tx2", "xavier"),
    "gpu": ("nano", "tx2", "xavier"),
    "cpu": ("pi3",),
}

#: Largest fleet :func:`generate_scenario` builds.  The paper's large-scale
#: runs use up to 64 devices; the bound sits far above that and exists so a
#: mistyped ``gen:n`` fails with one line instead of allocating the fleet.
MAX_GENERATED_DEVICES = 1024

#: Prefix of generator spec strings accepted by :func:`resolve_scenario`.
GENERATOR_PREFIX = "gen:"

_GRAMMAR = SpecGrammar(GENERATOR_PREFIX, "generator")
_GENERATOR_KEYS = ("n", "seed", "bw", "types", "trace")


def _resolve_type_pool(heterogeneity: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    """Turn the heterogeneity knob into a concrete tuple of device types."""
    if isinstance(heterogeneity, str):
        if heterogeneity in TYPE_POOLS:
            return TYPE_POOLS[heterogeneity]
        names = tuple(part.strip() for part in heterogeneity.split("+") if part.strip())
    else:
        names = tuple(heterogeneity)
    if not names:
        raise ValueError("heterogeneity resolved to an empty device-type pool")
    for name in names:
        if name.lower() not in DEVICE_CATALOG:
            raise ValueError(
                f"unknown device type {name!r} in heterogeneity spec; pools: "
                f"{sorted(TYPE_POOLS)}, types: {sorted(DEVICE_CATALOG)}"
            )
    return tuple(name.lower() for name in names)


def generate_scenario(
    num_devices: int = 16,
    seed: int = 0,
    bandwidth_mbps: Union[float, Tuple[float, float]] = (50.0, 300.0),
    heterogeneity: Union[str, Sequence[str]] = "mixed",
    trace_kind: str = "constant",
) -> Scenario:
    """Generate a seeded random fleet of heterogeneous providers.

    Parameters
    ----------
    num_devices:
        Fleet size, at most :data:`MAX_GENERATED_DEVICES`; the large-scale
        experiments use 16-64.
    seed:
        Seed of the fleet-composition RNG.  The same knob values always
        produce the identical scenario (name included), so a spec string
        alone reproduces the fleet.
    bandwidth_mbps:
        Either a single rate applied to every link or a ``(low, high)`` range
        sampled per device (rounded to whole Mbps, then clamped to the range
        so rounding can never escape it).
    heterogeneity:
        A pool name from :data:`TYPE_POOLS` (``"mixed"``, ``"gpu"``,
        ``"cpu"``), a single device type, a ``"+"``-joined list
        (``"nano+xavier"``) or an explicit sequence of type names; device
        types are drawn uniformly from the pool.
    trace_kind:
        Trace family every link uses when the scenario is built, one of
        :data:`~repro.network.bandwidth.TRACE_KINDS`.
    """
    if num_devices > MAX_GENERATED_DEVICES:
        raise ValueError(
            f"generator option n must be <= {MAX_GENERATED_DEVICES}, got {num_devices}"
        )
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if seed < 0:
        raise ValueError(f"generator option seed must be >= 0, got {seed}")
    if trace_kind not in TRACE_KINDS:
        raise ValueError(
            f"unknown trace kind {trace_kind!r}; expected {'|'.join(TRACE_KINDS)}"
        )
    pool = _resolve_type_pool(heterogeneity)
    if isinstance(bandwidth_mbps, (int, float)):
        low = high = float(bandwidth_mbps)
    else:
        low, high = (float(bandwidth_mbps[0]), float(bandwidth_mbps[1]))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"bandwidth must be finite, got {bandwidth_mbps!r}")
    if low > high:
        raise ValueError(f"bandwidth range is inverted: {low} > {high}")
    if low <= 0:
        raise ValueError(f"bandwidth must be positive, got {low}")
    rng = as_rng(int(seed))
    types = [pool[int(i)] for i in rng.integers(0, len(pool), size=num_devices)]
    if low == high:
        rates = [low] * num_devices
    else:
        rates = [
            float(min(high, max(low, round(r))))
            for r in rng.uniform(low, high, size=num_devices)
        ]
    specs = tuple(zip(types, rates))
    pool_label = heterogeneity if isinstance(heterogeneity, str) else "+".join(pool)
    bw_label = f"{low:g}" if low == high else f"{low:g}-{high:g}"
    return Scenario(
        name=f"gen-{num_devices}d-{pool_label}-bw{bw_label}-{trace_kind}-s{int(seed)}",
        device_specs=specs,
        description=(
            f"generated fleet: {num_devices} devices from pool {pool_label!r} "
            f"at {bw_label} Mbps ({trace_kind} traces, seed {int(seed)})"
        ),
        trace_kind=trace_kind,
    )


def parse_generator_spec(spec: str) -> Scenario:
    """Parse the CLI generator grammar into a :class:`Scenario`.

    Grammar: ``gen:[key=value[,key=value...]]`` (the shared format of
    :mod:`repro.utils.specs`) with keys

    ``n``      fleet size (default 16)
    ``seed``   composition seed (default 0)
    ``bw``     bandwidth, ``200`` or a ``50-300`` range (default ``50-300``)
    ``types``  heterogeneity pool / type / ``+``-list (default ``mixed``)
    ``trace``  trace kind (default ``constant``)

    Example: ``gen:n=32,seed=7,bw=50-300,types=mixed,trace=constant``.
    """
    options = _GRAMMAR.options(spec)
    _GRAMMAR.check_keys(options, _GENERATOR_KEYS)
    bw = options.get("bw", "50-300")
    # Split a range at its first '-' that is not an exponent sign (1e-05).
    parts = re.split(r"(?<![eE])-", bw, maxsplit=1)
    if not all(parts):
        raise ValueError(f"malformed bandwidth {bw!r}; expected '200' or '50-300'")
    rates = tuple(read_float("generator option bw", part) for part in parts)
    return generate_scenario(
        num_devices=_GRAMMAR.integer(options, "n", 16),
        seed=_GRAMMAR.integer(options, "seed", 0),
        bandwidth_mbps=rates if len(rates) == 2 else rates[0],
        heterogeneity=options.get("types", "mixed"),
        trace_kind=options.get("trace", "constant"),
    )


def override_generator_spec(spec: str, **overrides) -> str:
    """Rebuild a ``gen:`` spec string with some options replaced.

    The capacity planner and autoscaler probe *fleet sizes*: each probe
    re-derives the candidate scenario from the operator's spec with ``n``
    overridden (``override_generator_spec("gen:seed=7,bw=100", n=12)`` →
    ``"gen:n=12,seed=7,bw=100"``), keeping every other knob — seed, types,
    bandwidth, trace — exactly as given, so probes differ only in size.
    """
    options = {**_GRAMMAR.options(spec), **overrides}
    # Canonical keys first; unknown keys keep their order and are kept so
    # parse_generator_spec still rejects them.
    rank = {key: i for i, key in enumerate(_GENERATOR_KEYS)}
    ordered = sorted(options, key=lambda key: rank.get(key, len(rank)))
    return _GRAMMAR.render(**{key: options[key] for key in ordered})


def resolve_scenario(name: str) -> Scenario:
    """Resolve a scenario reference: a ``gen:`` spec or a catalogue name."""
    if name.startswith(GENERATOR_PREFIX):
        return parse_generator_spec(name)
    catalog = ScenarioCatalog.all_named()
    if name not in catalog:
        raise KeyError(
            f"unknown scenario {name!r}; choose one of {sorted(catalog)} or a "
            f"'{GENERATOR_PREFIX}...' generator spec"
        )
    return catalog[name]


__all__ = [
    "Scenario",
    "ScenarioCatalog",
    "ScenarioRegistry",
    "DeviceSpec",
    "TYPE_POOLS",
    "GENERATOR_PREFIX",
    "MAX_GENERATED_DEVICES",
    "generate_scenario",
    "override_generator_spec",
    "parse_generator_spec",
    "resolve_scenario",
]
