"""Capability-declaring scheme plugins: the open extension seam.

Every routing scheme the repository can measure is a
:class:`~repro.plugins.api.SchemePlugin`: a small object that declares
its **capabilities** — which networks it routes, which engines and
queueing disciplines it admits, a typed schema for its ``extra``
options, the side metrics it emits — and provides one
:meth:`~repro.plugins.api.SchemePlugin.prepare` hook turning a
:class:`~repro.runner.spec.ScenarioSpec` into a ``Runner(gen) ->
ReplicationOutput`` closure.

The registry (:mod:`repro.plugins.registry`) replaces the old closed
``_DISPATCH`` table: built-in schemes self-register via the
:func:`~repro.plugins.registry.register_scheme` decorator, and
third-party packages can ship new schemes through the
``repro.scheme_plugins`` entry-point group without touching this
repository.  :class:`~repro.runner.spec.ScenarioSpec` validation is
driven entirely by the declared capabilities, so configuration errors
enumerate what *is* available and why a combination is rejected.

Quickstart — a new scheme in one class::

    from repro.plugins import Capabilities, SchemePlugin, register_scheme
    from repro.plugins.api import steady_output

    @register_scheme
    class EchoPlugin(SchemePlugin):
        name = "echo"
        summary = "toy scheme: deliver every packet at birth"
        capabilities = Capabilities(networks=("hypercube",))

        def prepare(self, spec):
            def run(gen):
                ...  # consume gen, produce a DelayRecord
                return steady_output(spec, record)
            return run
"""

from repro.plugins.api import (
    Capabilities,
    OptionSpec,
    Runner,
    SchemePlugin,
)
from repro.plugins.registry import (
    available_schemes,
    get_plugin,
    iter_plugins,
    register_scheme,
    schemes_for_network,
    schemes_for_traffic,
    unregister_scheme,
)

__all__ = [
    "Capabilities",
    "OptionSpec",
    "Runner",
    "SchemePlugin",
    "available_schemes",
    "get_plugin",
    "iter_plugins",
    "register_scheme",
    "schemes_for_network",
    "schemes_for_traffic",
    "unregister_scheme",
]
