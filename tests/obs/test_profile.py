"""Profiler unit tests: wrapped layers, restoration, self vs busy time.

The profiler is exercised over toy modules (a monkeypatched ``LAYERS``),
so the timing rules are checked without the planner or the serving stack;
the real table is checked for resolvability and ledger agreement.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from repro.baselines import BASELINE_REGISTRY
from repro.obs import Profiler
from repro.obs import profile

_TOY = '''
def leaf(x):
    return x + 1

def recurse(n):
    return 0 if n == 0 else 1 + recurse(n - 1)

class Box:
    def outer(self, x):
        return leaf(x) * 2

    def fail(self):
        raise RuntimeError("boom")
'''

_USER = '''
from toy.layers import leaf

def call(x):
    return leaf(x)
'''

_TOY_LAYERS = (
    ("toy.layers", "leaf"),
    ("toy.layers", "recurse"),
    ("toy.layers", "Box.outer"),
    ("toy.layers", "Box.fail"),
)


def _module(name, source, monkeypatch):
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(source, module.__dict__)
    return module


@pytest.fixture
def toy(monkeypatch):
    layers = _module("toy.layers", _TOY, monkeypatch)
    user = _module("toy.user", _USER, monkeypatch)
    monkeypatch.setattr(profile, "LAYERS", _TOY_LAYERS)
    return layers, user


def _originals(layers, user):
    return [
        layers.__dict__["leaf"],
        layers.__dict__["recurse"],
        layers.Box.__dict__["outer"],
        layers.Box.__dict__["fail"],
        user.__dict__["leaf"],
    ]


def _assert_same(before, after):
    assert len(before) == len(after)
    assert all(a is b for a, b in zip(before, after))


class TestProfiler:
    def test_section_accumulates_calls_and_time(self, toy):
        layers, _ = toy
        with Profiler() as profiler:
            box = layers.Box()
            for x in range(3):
                assert box.outer(x) == 2 * (x + 1)
        calls, busy, self_s = profiler.totals()["layers.Box.outer"]
        assert calls == 3 and busy >= 0.0 and self_s >= 0.0
        assert profiler.calls("layers.leaf") == 3

    def test_counters_accumulate(self, toy):
        layers, _ = toy
        profiler = Profiler()
        with profiler:
            layers.leaf(1)
        first_total = profiler.total_s
        with profiler:
            layers.leaf(1)
            layers.leaf(2)
        assert profiler.calls("layers.leaf") == 3
        assert profiler.total_s >= first_total

    def test_section_survives_exceptions(self, toy):
        layers, user = toy
        before = _originals(layers, user)
        with pytest.raises(RuntimeError, match="boom"):
            with Profiler() as profiler:
                layers.Box().fail()
        assert profiler.calls("layers.Box.fail") == 1
        _assert_same(before, _originals(layers, user))

    def test_originals_restored_by_identity(self, toy):
        layers, user = toy
        before = _originals(layers, user)
        with Profiler():
            wrapped = _originals(layers, user)
            assert not any(a is b for a, b in zip(before, wrapped))
        _assert_same(before, _originals(layers, user))

    def test_self_time_is_busy_time_minus_children(self, toy):
        layers, _ = toy
        with Profiler() as profiler:
            layers.Box().outer(1)
        totals = profiler.totals()
        for calls, busy, self_s in totals.values():
            assert self_s <= busy
        _, outer_busy, outer_self = totals["layers.Box.outer"]
        _, leaf_busy, _ = totals["layers.leaf"]
        assert outer_self == pytest.approx(outer_busy - leaf_busy)
        assert profiler.covered_s == outer_busy

    def test_recursion_is_counted_once_in_busy_time(self, toy):
        layers, _ = toy
        with Profiler() as profiler:
            assert layers.recurse(5) == 5
        calls, busy, self_s = profiler.totals()["layers.recurse"]
        assert calls == 6
        # One outermost call: busy is its duration, not the nested sum.
        assert busy == profiler.covered_s
        assert self_s <= busy

    def test_function_imported_by_name_is_traced(self, toy):
        _, user = toy
        with Profiler() as profiler:
            assert user.call(1) == 2
        assert profiler.calls("layers.leaf") == 1

    def test_format_table_mentions_everything(self, toy):
        layers, _ = toy
        with Profiler() as profiler:
            layers.Box().outer(1)
        profiler.counters["hits"] = 2
        table = profiler.format_table()
        words = ["layers.Box.outer", "layers.leaf", "calls", "busy", "self", "total", "hits"]
        assert all(word in table for word in words)
        assert "not in any layer" in table
        assert "layers.recurse" not in table  # a layer that never ran has no row
        assert "excluded from parity" in table

    def test_format_table_empty(self, toy):
        with Profiler() as profiler:
            pass
        assert "no layer ran" in profiler.format_table()


def _targets():
    """Every real LAYERS target, as the profiler would wrap it."""
    found = []
    for module_name, attr_path in profile.LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr_path:
            cls_name, method = attr_path.split(".")
            found.append(getattr(module, cls_name).__dict__[method])
        else:
            found.append(getattr(module, attr_path))
    return found


class TestNullProfiler:
    """Profiling off: no hook exists, so nothing is installed anywhere."""

    def test_every_hook_is_a_noop(self):
        before = _targets()
        profiler = Profiler()  # constructing installs nothing
        _assert_same(before, _targets())
        with profiler:
            assert not any(a is b for a, b in zip(before, _targets()))
        _assert_same(before, _targets())


class TestLayerTable:
    def test_every_layer_resolves_to_a_callable(self):
        assert all(callable(target) for target in _targets())
        names = [profile.layer_name(*entry) for entry in profile.LAYERS]
        assert len(set(names)) == len(names)

    def test_ledger_layers_are_profiler_layers(self):
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "ledger.py"
        spec = importlib.util.spec_from_file_location("e2e_ledger", path)
        ledger = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ledger)
        resolved = {
            profile.layer_name(*entry): target
            for entry, target in zip(profile.LAYERS, _targets())
        }
        for name, (module_name, attr_path) in ledger.LAYERS.items():
            cls_name, _, method = attr_path.rpartition(".")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            assert resolved[name] is vars(owner)[method], name

    def test_every_baseline_planner_has_a_layer(self):
        targets = set(profile.LAYERS)
        for cls in BASELINE_REGISTRY.values():
            assert (cls.__module__, f"{cls.__name__}.plan") in targets
