"""Tests for the scenario catalogue (Tables I-III), the procedural
large-scale generator and the collision-safe registry."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (
    MAX_GENERATED_DEVICES,
    TYPE_POOLS,
    ScenarioCatalog,
    ScenarioRegistry,
    generate_scenario,
    override_generator_spec,
    parse_generator_spec,
    resolve_scenario,
)
from repro.network.topology import NetworkModel


class TestTable1:
    def test_groups_and_compositions(self):
        groups = ScenarioCatalog.table1_groups(200.0)
        assert set(groups) == {"DA", "DB", "DC"}
        assert groups["DA"].device_types == ["tx2", "tx2", "nano", "nano"]
        assert groups["DB"].device_types == ["xavier", "xavier", "nano", "nano"]
        assert groups["DC"].device_types == ["xavier", "tx2", "nano", "pi3"]

    def test_bandwidth_applied(self):
        groups = ScenarioCatalog.table1_groups(50.0)
        assert all(b == 50.0 for b in groups["DB"].bandwidths_mbps)


class TestTable2:
    def test_groups_and_bandwidths(self):
        groups = ScenarioCatalog.table2_groups("nano")
        assert set(groups) == {"NA", "NB", "NC", "ND"}
        assert sorted(groups["NA"].bandwidths_mbps) == [50, 50, 200, 200]
        assert sorted(groups["ND"].bandwidths_mbps) == [50, 100, 200, 300]

    def test_device_type_applied(self):
        groups = ScenarioCatalog.table2_groups("xavier")
        assert all(t == "xavier" for t in groups["NC"].device_types)


class TestTable3:
    def test_sixteen_devices_each(self):
        groups = ScenarioCatalog.table3_groups()
        assert set(groups) == {"LA", "LB", "LC", "LD"}
        for scenario in groups.values():
            assert scenario.num_devices == 16

    def test_lb_pairs_fast_device_with_slow_link(self):
        lb = ScenarioCatalog.table3_groups()["LB"]
        pairs = set(lb.device_specs)
        assert ("xavier", 50) in pairs and ("pi3", 300) in pairs

    def test_ld_pairs_fast_device_with_fast_link(self):
        ld = ScenarioCatalog.table3_groups()["LD"]
        pairs = set(ld.device_specs)
        assert ("xavier", 300) in pairs and ("pi3", 50) in pairs


class TestScenarioHelpers:
    def test_with_bandwidth_renames(self):
        scenario = ScenarioCatalog.table1_groups(200.0)["DB"].with_bandwidth(50.0)
        assert all(b == 50.0 for b in scenario.bandwidths_mbps)
        assert "DB" in scenario.name and "50" in scenario.name

    def test_with_device_type(self):
        scenario = ScenarioCatalog.table2_groups("nano")["NA"].with_device_type("tx2")
        assert all(t == "tx2" for t in scenario.device_types)

    def test_build_constant(self):
        devices, network = ScenarioCatalog.table1_groups(100.0)["DA"].build()
        assert len(devices) == 4
        assert isinstance(network, NetworkModel)
        assert network.nominal_mbps(0) == 100.0

    def test_build_dynamic_trace_kind(self):
        scenario = ScenarioCatalog.dynamic_nano()
        devices, network = scenario.build(seed=0)
        assert scenario.trace_kind == "dynamic"
        assert len(devices) == 4

    def test_homogeneous(self):
        scenario = ScenarioCatalog.homogeneous("tx2", 300.0, count=3)
        assert scenario.device_types == ["tx2"] * 3

    def test_all_named_unique(self):
        catalog = ScenarioCatalog.all_named()
        assert len(catalog) >= 14
        assert "DB" in catalog and "LD" in catalog and "NA-xavier" in catalog


class TestGenerator:
    def test_deterministic_for_a_seed(self):
        assert generate_scenario(32, seed=7) == generate_scenario(32, seed=7)
        assert generate_scenario(32, seed=7) != generate_scenario(32, seed=8)

    def test_fleet_size_and_type_pool(self):
        scenario = generate_scenario(48, seed=1, heterogeneity="gpu")
        assert scenario.num_devices == 48
        assert set(scenario.device_types) <= set(TYPE_POOLS["gpu"])

    def test_bandwidth_range_respected(self):
        scenario = generate_scenario(64, seed=2, bandwidth_mbps=(50.0, 300.0))
        assert all(50.0 <= b <= 300.0 for b in scenario.bandwidths_mbps)
        # A range should actually vary across a 64-device fleet.
        assert len(set(scenario.bandwidths_mbps)) > 1

    def test_fixed_bandwidth(self):
        scenario = generate_scenario(8, seed=3, bandwidth_mbps=200.0)
        assert scenario.bandwidths_mbps == [200.0] * 8

    def test_rounding_cannot_escape_narrow_ranges(self):
        """Regression: whole-Mbps rounding is clamped back into the range."""
        narrow = generate_scenario(16, seed=3, bandwidth_mbps=(0.2, 0.4))
        assert all(0.2 <= b <= 0.4 for b in narrow.bandwidths_mbps)
        fractional = generate_scenario(64, seed=3, bandwidth_mbps=(50.4, 99.6))
        assert all(50.4 <= b <= 99.6 for b in fractional.bandwidths_mbps)

    def test_single_type_and_plus_list(self):
        assert set(generate_scenario(8, heterogeneity="nano").device_types) == {"nano"}
        mixed = generate_scenario(32, seed=4, heterogeneity="nano+xavier")
        assert set(mixed.device_types) <= {"nano", "xavier"}

    def test_trace_kind_flows_into_build(self):
        scenario = generate_scenario(4, seed=5, trace_kind="dynamic")
        assert scenario.trace_kind == "dynamic"
        devices, network = scenario.build(seed=5)
        assert len(devices) == 4
        assert isinstance(network, NetworkModel)

    def test_name_encodes_spec(self):
        scenario = generate_scenario(32, seed=7)
        assert "32d" in scenario.name and "s7" in scenario.name

    def test_validation(self):
        with pytest.raises(ValueError, match="num_devices"):
            generate_scenario(0)
        with pytest.raises(ValueError, match="unknown device type"):
            generate_scenario(4, heterogeneity="cray")
        with pytest.raises(ValueError, match="inverted"):
            generate_scenario(4, bandwidth_mbps=(300.0, 50.0))
        with pytest.raises(ValueError, match="positive"):
            generate_scenario(4, bandwidth_mbps=0.0)
        with pytest.raises(ValueError, match="finite"):
            generate_scenario(4, bandwidth_mbps=float("inf"))
        with pytest.raises(ValueError, match="unknown trace kind"):
            generate_scenario(4, trace_kind="bogus")


class TestGeneratorSpecGrammar:
    def test_full_spec(self):
        scenario = parse_generator_spec("gen:n=32,seed=7,bw=50-300,types=mixed,trace=constant")
        assert scenario == generate_scenario(32, seed=7)

    def test_defaults(self):
        assert parse_generator_spec("gen:") == generate_scenario()

    def test_fixed_bandwidth_and_type(self):
        scenario = parse_generator_spec("gen:n=4,bw=200,types=nano")
        assert scenario.device_specs == (("nano", 200.0),) * 4

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown generator option"):
            parse_generator_spec("gen:bogus=1")
        with pytest.raises(ValueError, match="key=value"):
            parse_generator_spec("gen:n")
        with pytest.raises(ValueError, match="malformed bandwidth"):
            parse_generator_spec("gen:bw=50-")
        with pytest.raises(ValueError, match="must start with"):
            parse_generator_spec("n=4")
        with pytest.raises(ValueError, match="finite"):
            parse_generator_spec("gen:n=4,bw=nan-10")
        with pytest.raises(ValueError, match="finite"):
            parse_generator_spec("gen:n=4,bw=inf")
        with pytest.raises(ValueError, match="more than once"):
            parse_generator_spec("gen:n=4,n=5")

    def test_fleet_size_is_bounded_before_allocating(self):
        """Regression: `gen:n=1000000000000` died in numpy's allocator."""
        assert generate_scenario(MAX_GENERATED_DEVICES, seed=0).num_devices == MAX_GENERATED_DEVICES
        with pytest.raises(ValueError, match=f"generator option n must be <= {MAX_GENERATED_DEVICES}"):
            parse_generator_spec("gen:n=1000000000000")

    def test_unknown_trace_kind_rejected(self):
        """Regression: the trace kind is checked when the spec is parsed,
        not later when the scenario builds its traces."""
        with pytest.raises(ValueError, match="unknown trace kind 'bogus'"):
            parse_generator_spec("gen:n=4,trace=bogus")

    def test_resolve_scenario_both_forms(self):
        assert resolve_scenario("DB").name == "DB"
        assert resolve_scenario("gen:n=4").num_devices == 4
        with pytest.raises(KeyError, match="unknown scenario"):
            resolve_scenario("ZZ")


class TestScenarioRegistry:
    def test_register_and_get(self):
        registry = ScenarioRegistry()
        scenario = registry.register(generate_scenario(4, seed=0))
        assert registry.get(scenario.name) == scenario
        assert scenario.name in registry
        assert len(registry) == 1

    def test_equal_reregistration_is_idempotent(self):
        registry = ScenarioRegistry()
        registry.register(generate_scenario(4, seed=0))
        registry.register(generate_scenario(4, seed=0))
        assert len(registry) == 1

    def test_collision_from_repeated_derivations_rejected(self):
        """Regression: with_bandwidth/homogeneous derivations can silently
        collide on a name while describing different fleets."""
        registry = ScenarioRegistry()
        registry.register(ScenarioCatalog.homogeneous(count=4))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ScenarioCatalog.homogeneous(count=8))

    def test_with_bandwidth_derivations_share_name(self):
        """The collision source: deriving the same target bandwidth from two
        different base groups produces the same derived name."""
        a = ScenarioCatalog.table1_groups(200.0)["DB"].with_bandwidth(50.0)
        b = ScenarioCatalog.table1_groups(100.0)["DB"].with_bandwidth(50.0)
        assert a.name == b.name  # the hazard the registry guards against
        registry = ScenarioRegistry()
        registry.register(a)
        registry.register(b)  # equal content: idempotent, not a collision
        assert len(registry) == 1

    def test_uniquify_renames(self):
        registry = ScenarioRegistry()
        registry.register(ScenarioCatalog.homogeneous(count=4))
        renamed = registry.register(ScenarioCatalog.homogeneous(count=8), uniquify=True)
        assert renamed.name.endswith("-2")
        assert registry.get(renamed.name).num_devices == 8
        # Uniquifying the same scenario again reuses its assigned name.
        again = registry.register(ScenarioCatalog.homogeneous(count=8), uniquify=True)
        assert again.name == renamed.name
        assert len(registry) == 2

    def test_register_under_explicit_name(self):
        registry = ScenarioRegistry()
        scenario = registry.register(generate_scenario(4, seed=0), name="fleet-a")
        assert scenario.name == "fleet-a"
        assert registry.get("fleet-a").num_devices == 4

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            ScenarioRegistry().get("nope")

    def test_as_dict_is_a_copy(self):
        registry = ScenarioRegistry()
        registry.register(generate_scenario(4, seed=0))
        snapshot = registry.as_dict()
        snapshot.clear()
        assert len(registry) == 1


class TestOverrideGeneratorSpec:
    def test_overrides_fleet_size(self):
        spec = override_generator_spec("gen:n=2,seed=3,types=nano,bw=70", n=5)
        assert parse_generator_spec(spec).num_devices == 5
        # Every other option survives the rewrite.
        base = parse_generator_spec("gen:n=5,seed=3,types=nano,bw=70")
        assert parse_generator_spec(spec).device_specs == base.device_specs

    def test_adds_missing_option(self):
        spec = override_generator_spec("gen:n=4", seed=9)
        assert "seed=9" in spec
        assert parse_generator_spec(spec).num_devices == 4

    def test_canonical_key_order_is_stable(self):
        a = override_generator_spec("gen:bw=70,n=2,seed=3", n=6)
        b = override_generator_spec("gen:seed=3,bw=70,n=2", n=6)
        assert a == b

    def test_unknown_keys_still_rejected_downstream(self):
        spec = override_generator_spec("gen:n=2,bogus=1", n=3)
        with pytest.raises(ValueError):
            parse_generator_spec(spec)

    def test_requires_generator_prefix(self):
        with pytest.raises(ValueError):
            override_generator_spec("DB", n=3)
