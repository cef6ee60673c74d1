"""Plugin for the paper's central scheme: greedy routing.

Greedy routing is the one scheme defined on **every** registered
network and drivable by **every** registered engine, and since both
axes became plugin APIs it contains no network- or engine-specific
code at all: the spec's :class:`~repro.networks.api.NetworkPlugin`
supplies the topology, the workload and the per-packet arc paths, and
the resolved :class:`~repro.engines.api.EnginePlugin`
(:func:`repro.engines.registry.resolve_engine` — the level sweep for
levelled networks, the fixed-point path solver for ring/torus and, when
forced, for cross-validation anywhere) turns a sample into delivery
epochs.

RNG contract (golden-pinned): the workload sample is drawn from the
replication stream *before* the engine runs, so forcing the engine
never changes which packets exist, and every engine resolves their
contention alike, bit for bit under FIFO and PS.

The scheme also exposes the replication-batched fast path: when the
resolved engine declares batching, :meth:`GreedyPlugin.batch_runner`
hands the parallel runner a closure that stacks R replications into
one vectorised computation (bit-identical to R sequential runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError, UnstableSystemError
from repro.plugins.api import (
    Capabilities,
    Runner,
    SchemePlugin,
    steady_output,
)
from repro.plugins.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ScenarioSpec

__all__ = ["GreedyPlugin"]


@register_scheme
class GreedyPlugin(SchemePlugin):
    name = "greedy"
    summary = "greedy routing (the paper's scheme; every network)"
    capabilities = Capabilities(
        # implemented purely against the NetworkPlugin and EnginePlugin
        # protocols, so it runs on every registered network and can be
        # forced onto any engine that supports the network —
        # third-party plugins included
        networks=("*",),
        engines=("vectorized", "feedforward", "fixedpoint"),
        # implemented purely against the workload sample, so any
        # registered traffic law — third-party included — can drive it
        traffics=("*",),
        disciplines=("fifo", "ps"),
        network_options=True,
    )

    def native_engine(self, spec: "ScenarioSpec") -> Optional[str]:
        """Whatever the network plugin declares native: the level
        sweep on levelled networks, the fixed-point solver elsewhere."""
        return spec.network_plugin.native_engine()

    def validate(self, spec: "ScenarioSpec") -> None:
        super().validate(spec)
        # network-scoped options (law, dim_order, direction, side) are
        # validated by the network plugin's schema; the one cross-field
        # rule the scheme owns is that a global dimension crossing
        # order only exists inside the levelled level sweep (the
        # path-based engines replay canonical-order paths)
        if spec.option("dim_order") is not None:
            from repro.engines.registry import resolve_engine

            engine = resolve_engine(spec)
            if engine is None or engine.capabilities.kind != "levelled":
                raise ConfigurationError(
                    "dim_order is a vectorized-engine option (it needs "
                    "the levelled level sweep)"
                )

    def theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """The network's closed-form greedy bracket (Props 12/13 on the
        hypercube, 14/17 on the butterfly, the zero-contention lower
        bound elsewhere); ``(-inf, inf)`` off the paper's traffic law
        (the traffic plugin's ``paper_law`` declaration) or at unstable
        operating points."""
        import math

        no_bracket = (-math.inf, math.inf)
        if not spec.traffic_plugin.paper_law:
            return no_bracket
        try:
            return spec.network_plugin.greedy_theory_bounds(spec)
        except UnstableSystemError:
            return no_bracket

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        from repro.engines.registry import resolve_engine
        from repro.sim.measurement import DelayRecord

        net = spec.network_plugin
        topology = net.build_topology(spec)
        engine = resolve_engine(spec)

        def run(gen):
            sample = net.build_workload(spec).generate(spec.horizon, gen)
            delivery = engine.simulate(spec, topology, sample)
            return steady_output(
                spec, DelayRecord(sample.times, delivery, sample.horizon)
            )

        return run

    def batch_runner(self, spec: "ScenarioSpec"):
        from repro.engines.registry import resolve_engine

        engine = resolve_engine(spec)
        if engine is None or not engine.supports_batch(spec):
            return None
        return lambda seeds: engine.simulate_batch(spec, seeds)
