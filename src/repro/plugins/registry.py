"""The scheme axis of the plugin registry (:class:`repro.registry.Registry`).

Replaces the closed ``_DISPATCH`` table of the pre-plugin code.  A scheme
must declare capabilities, and it takes no aliases:
:class:`~repro.runner.spec.ScenarioSpec` stores ``scheme`` verbatim, so
an alias would split cache cells.  On top of the shared registry this
module answers which schemes can run on a network or under a traffic
law.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError
from repro.plugins.api import SchemePlugin
from repro.registry import Registry

__all__ = [
    "register_scheme",
    "unregister_scheme",
    "get_plugin",
    "iter_plugins",
    "available_schemes",
    "schemes_for_network",
    "schemes_for_traffic",
    "ENTRY_POINT_GROUP",
    "SCHEMES",
]

ENTRY_POINT_GROUP = "repro.scheme_plugins"


def _check_scheme(plugin: SchemePlugin) -> None:
    if getattr(plugin, "capabilities", None) is None:
        raise ConfigurationError(f"plugin {plugin.name!r} declares no capabilities")


SCHEMES: Registry[SchemePlugin] = Registry(
    "scheme",
    SchemePlugin,
    (
        "repro.plugins.greedy",
        "repro.plugins.slotted",
        "repro.schemes.random_order",
        "repro.schemes.twophase",
        "repro.schemes.valiant",
        "repro.schemes.deflection",
        "repro.schemes.static_tasks",
    ),
    ENTRY_POINT_GROUP,
    validate=_check_scheme,
    aliased=False,
)

register_scheme = SCHEMES.register
unregister_scheme = SCHEMES.unregister
get_plugin = SCHEMES.get
iter_plugins = SCHEMES.plugins
available_schemes = SCHEMES.names


def schemes_for_network(network: str) -> Tuple[str, ...]:
    """Sorted names of the schemes that can run on *network*
    (canonical name or alias)."""
    from repro.networks.registry import canonical_network_name

    try:
        canon = canonical_network_name(network)
    except ConfigurationError:
        return ()  # unknown network: no scheme supports it
    return tuple(
        p.name
        for p in iter_plugins()
        if canon in p.capabilities.networks or "*" in p.capabilities.networks
    )


def schemes_for_traffic(traffic: str) -> Tuple[str, ...]:
    """Sorted names of the schemes that can run under *traffic*
    (canonical name or alias)."""
    from repro.traffic.registry import canonical_traffic_name, declared_traffic_names

    try:
        canon = canonical_traffic_name(traffic)
    except ConfigurationError:
        return ()  # unknown traffic: no scheme supports it
    return tuple(
        p.name
        for p in iter_plugins()
        if canon in declared_traffic_names(p.capabilities.traffics)
        or "*" in p.capabilities.traffics
    )
