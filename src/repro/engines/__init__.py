"""Capability-declaring engine plugins: sample-path solvers as
first-class citizens.

The third axis of the plugin trilogy (:mod:`repro.plugins` opened the
scheme axis, :mod:`repro.networks` the network axis): every solver
that can turn a traffic sample into delivery epochs is an
:class:`~repro.engines.api.EnginePlugin` declaring its identity
(name + aliases), its structural kind (levelled sweep or fixed-point
path solver), the disciplines and networks it drives,
whether it supports **replication batching**, and its typed
engine-scoped options.  The scheme adapters, the spec validation, the
parallel runner and the CLI contain no engine-specific code at all —
``if engine == ...`` branches live in this package alone (grep-test
enforced) — and adding a solver is one plugin module, or a third-party
package shipping the ``repro.engine_plugins`` entry-point group.

Quickstart — a new engine in one class::

    from repro.engines import EngineCapabilities, EnginePlugin, register_engine

    @register_engine
    class MyEngine(EnginePlugin):
        name = "myengine"
        aliases = ("me",)
        summary = "one line for `repro engines`"
        capabilities = EngineCapabilities(kind="fixed-point")

        def simulate(self, spec, topology, sample): ...

``simulate`` turns one sample into delivery epochs; an engine that
declares ``batching=True`` implements ``batch_deliveries`` instead, and
the base class serves ``simulate`` as a batch of one.
"""

from repro.engines.api import EngineCapabilities, EnginePlugin, batch_output
from repro.engines.registry import (
    all_engine_names,
    available_engines,
    canonical_engine_name,
    check_forced_engine,
    declared_engine_names,
    get_engine,
    iter_engines,
    normalize_engine_name,
    register_engine,
    resolve_engine,
    unregister_engine,
)

__all__ = [
    "EngineCapabilities",
    "EnginePlugin",
    "batch_output",
    "all_engine_names",
    "available_engines",
    "canonical_engine_name",
    "check_forced_engine",
    "declared_engine_names",
    "get_engine",
    "iter_engines",
    "normalize_engine_name",
    "register_engine",
    "resolve_engine",
    "unregister_engine",
]
