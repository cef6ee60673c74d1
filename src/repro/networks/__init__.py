"""Capability-declaring network plugins: topologies as first-class
citizens.

Mirror of :mod:`repro.plugins` (the scheme axis) on the network axis:
every topology the repository can measure is a
:class:`~repro.networks.api.NetworkPlugin` declaring its identity
(name + aliases), its network-scoped options, its
:class:`~repro.topology.base.Topology` factory, its load-factor ↔
arrival-rate law, its greedy machinery (workload, paths and, for a
levelled network, the per-level arc map that selects the level-sweep
engine) and its closed-form theory.  The scenario layer,
the parallel engine and the CLI contain no network-specific code at
all — adding a topology is one plugin module (see
:mod:`repro.networks.ring` for the template), or a third-party package
shipping the ``repro.network_plugins`` entry-point group.

Quickstart — a new network in one class::

    from repro.networks import NetworkPlugin, register_network

    @register_network
    class MyNetwork(NetworkPlugin):
        name = "mynet"
        aliases = ("mn",)
        summary = "one line for `repro networks`"

        def build_topology(self, spec): ...
        def lam_for_load(self, spec): ...
        def load_factor(self, spec): ...
        def build_workload(self, spec): ...
        def greedy_paths(self, topology, spec, sample): ...
        # optional, levelled networks only: a per-level arc map
        def greedy_levels(self, topology, spec): ...
"""

from repro.networks.api import NetworkPlugin
from repro.networks.registry import (
    all_network_names,
    available_networks,
    canonical_network_name,
    get_network,
    iter_networks,
    register_network,
    unregister_network,
)

__all__ = [
    "NetworkPlugin",
    "all_network_names",
    "available_networks",
    "canonical_network_name",
    "get_network",
    "iter_networks",
    "register_network",
    "unregister_network",
]
