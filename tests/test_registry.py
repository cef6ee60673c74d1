"""Tests for the one plugin registry (:class:`repro.registry.Registry`),
run against each axis it serves: schemes, networks, engines and traffic.

Each axis's own rules (reserved engine names, engine kinds, the legacy
traffic law, scheme capabilities) are tested in that axis's module.
"""

import importlib.metadata as md

import pytest

from repro import registry as registry_module
from repro.engines import EngineCapabilities, EnginePlugin
from repro.engines.registry import ENGINES
from repro.errors import ConfigurationError
from repro.networks import NetworkPlugin
from repro.networks.registry import NETWORKS
from repro.plugins import Capabilities, SchemePlugin
from repro.plugins.registry import SCHEMES
from repro.registry import Registry
from repro.traffic import TrafficPlugin
from repro.traffic.registry import TRAFFICS


def _hook(self, *args):
    """A run hook these tests never call: registration only needs one
    of the pair declared (a scheme's ``prepare``/``batch_runner``, an
    engine's ``simulate``/``batch_deliveries``)."""
    raise AssertionError("registry tests do not run plugins")


#: axis -> (registry, plugin base, attributes a valid plugin needs,
#: entry-point group, a built-in name)
AXES = {
    "scheme": (
        SCHEMES, SchemePlugin,
        {"capabilities": Capabilities(networks=("hypercube",)), "prepare": _hook},
        "repro.scheme_plugins", "greedy",
    ),
    "network": (NETWORKS, NetworkPlugin, {}, "repro.network_plugins", "hypercube"),
    "engine": (
        ENGINES, EnginePlugin,
        {"capabilities": EngineCapabilities(kind="fixed-point"), "simulate": _hook},
        "repro.engine_plugins", "feedforward",
    ),
    "traffic": (TRAFFICS, TrafficPlugin, {}, "repro.traffic_plugins", "uniform"),
}
#: the axes whose specs canonicalise names, so their plugins take aliases
ALIASED = ["network", "engine", "traffic"]


def plugin_class(axis: str, name: str, aliases=()) -> type:
    """A fresh valid plugin class for *axis* (a new class on every call)."""
    _, base, attrs, _, _ = AXES[axis]
    return type(f"Fake_{name}", (base,), {"name": name, "aliases": aliases, **attrs})


@pytest.mark.parametrize("axis", sorted(AXES))
def test_entry_points_load_and_a_broken_one_warns(axis, monkeypatch):
    reg, _, _, group, builtin = AXES[axis]
    good = plugin_class(axis, f"ep-{axis}")

    class GoodEP:
        name = f"ep-{axis}"

        def load(self):
            return good

    class BrokenEP:
        name = f"broken-{axis}"

        def load(self):
            raise ImportError("third-party package is broken")

    class ShadowEP:  # a built-in name: built-ins win, so never loaded
        name = builtin

        def load(self):
            raise AssertionError("a shadowed entry point was loaded")

    assert builtin in reg.names()  # built-ins load before the fakes go in
    groups = []

    def entry_points(group=None):
        groups.append(group)
        return [GoodEP(), BrokenEP(), ShadowEP()]

    monkeypatch.setattr(md, "entry_points", entry_points)
    try:
        with pytest.warns(RuntimeWarning, match=f"broken-{axis}") as caught:
            reg._load_entry_points()
        assert groups == [group]
        assert not any(builtin in str(w.message) for w in caught)
        assert type(reg.get(f"ep-{axis}")) is good
        assert f"broken-{axis}" not in reg.names()
    finally:
        reg.unregister(f"ep-{axis}")


@pytest.mark.parametrize("axis", ALIASED)
def test_overwrite_cannot_steal_an_alias(axis):
    reg = AXES[axis][0]
    owner = plugin_class(axis, f"{axis}-owner", ("shared-alias",))
    thief = plugin_class(axis, f"{axis}-thief", ("shared-alias",))
    reg.register(owner)
    try:
        # overwrite replaces same-name registrations only; it never
        # licenses taking another plugin's alias
        with pytest.raises(ConfigurationError, match="alias"):
            reg.register(thief, overwrite=True)
        assert reg.canonical("shared-alias") == f"{axis}-owner"
        assert f"{axis}-thief" not in reg.names()
    finally:
        reg.unregister(f"{axis}-owner")
    with pytest.raises(ConfigurationError):
        reg.get("shared-alias")


@pytest.mark.parametrize("axis", ALIASED)
def test_overwrite_releases_the_old_aliases(axis):
    reg = AXES[axis][0]
    name, other = f"{axis}-swapped", f"{axis}-other"
    old = plugin_class(axis, name, ("old-alias",))
    new = plugin_class(axis, name, ("new-alias",))
    reg.register(old)
    try:
        reg.register(new, overwrite=True)
        assert type(reg.get(name)) is new
        assert type(reg.get("new-alias")) is new
        with pytest.raises(ConfigurationError):
            reg.get("old-alias")
        assert "old-alias" not in reg.all_names()
        # the released alias is free for another plugin
        reg.register(plugin_class(axis, other, ("old-alias",)))
        assert reg.canonical("old-alias") == other
    finally:
        reg.unregister(name)
        reg.unregister(other)
    assert "new-alias" not in reg.all_names()
    assert "old-alias" not in reg.all_names()


def test_scheme_aliases_are_ignored():
    # ScenarioSpec stores the scheme verbatim, so a scheme alias would
    # split cache cells: the scheme axis registers none
    SCHEMES.register(plugin_class("scheme", "aliased-scheme", ("as",)))
    try:
        assert SCHEMES.get("aliased-scheme").name == "aliased-scheme"
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            SCHEMES.get("as")
        assert "as" not in SCHEMES.all_names()
    finally:
        SCHEMES.unregister("aliased-scheme")


@pytest.mark.parametrize("axis", sorted(AXES))
def test_failed_builtin_import_can_be_fixed_and_retried(axis, monkeypatch):
    reg = AXES[axis][0]
    fresh = Registry(reg.kind, reg.base, ("flaky_builtins",), reg.group)
    late = plugin_class(axis, "late")
    state = {"broken": True, "imports": 0}

    def import_module(name):
        assert name == "flaky_builtins"
        state["imports"] += 1
        if state["broken"]:
            raise ImportError("flaky_builtins is half-installed")
        fresh.register(late)

    monkeypatch.setattr(registry_module, "import_module", import_module)
    monkeypatch.setattr(md, "entry_points", lambda group=None: [])
    with pytest.raises(ImportError, match="half-installed"):
        fresh.get("late")
    state["broken"] = False
    assert type(fresh.get("late")) is late
    assert fresh.names() == ("late",)
    assert state["imports"] == 2  # loaded once it worked, then never again
