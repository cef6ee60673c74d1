"""The network axis of the plugin registry (:class:`repro.registry.Registry`).

Replaces the ``if network == ...`` branches that used to be scattered
through the runner, the CLI and the scheme adapters.
:func:`canonical_network_name` resolves any accepted spelling
(``"cube"`` for ``"hypercube"``) to the canonical one, which is what
:class:`~repro.runner.spec.ScenarioSpec` stores and content-hashes, so
an alias and its canonical name always share one cache cell.
"""

from __future__ import annotations

from repro.networks.api import NetworkPlugin
from repro.registry import Registry

__all__ = [
    "register_network",
    "unregister_network",
    "get_network",
    "iter_networks",
    "available_networks",
    "all_network_names",
    "canonical_network_name",
    "ENTRY_POINT_GROUP",
    "NETWORKS",
]

ENTRY_POINT_GROUP = "repro.network_plugins"

NETWORKS: Registry[NetworkPlugin] = Registry(
    "network",
    NetworkPlugin,
    (
        "repro.networks.hypercube",
        "repro.networks.butterfly",
        "repro.networks.ring",
        "repro.networks.torus",
    ),
    ENTRY_POINT_GROUP,
)

register_network = NETWORKS.register
unregister_network = NETWORKS.unregister
get_network = NETWORKS.get
canonical_network_name = NETWORKS.canonical
iter_networks = NETWORKS.plugins
available_networks = NETWORKS.names
all_network_names = NETWORKS.all_names
