"""Engine plugin for the vectorised fixed-point solver: the one path
engine.

Wraps :func:`repro.sim.fixedpoint.simulate_paths_fixed_point`, which
solves greedy routing over explicit arc paths — the
:meth:`~repro.networks.api.NetworkPlugin.greedy_paths` hook — with the
feed-forward engine's vectorised kernels and no event calendar: FIFO
in one time-ordered pass that serves every hop row once, PS by
sweeping to a consistent sample path.  It drives every network, and
is the native engine of those without a per-level arc map (ring,
torus, third-party topologies shipping only ``greedy_paths``).  On a
levelled network it reproduces the feed-forward engine's sample path
bit for bit, so forcing ``engine="fixedpoint"`` on the hypercube or
the butterfly cross-validates the level sweep (tested).  ``event``,
``eventsim`` and ``calendar`` are aliases, kept from the event engine
this engine absorbed: a spec spelled with one normalises to
``"fixedpoint"`` before hashing.

The engine declares no options.  The PS sweeps stop at a ceiling
that scales with the hop count (``2 * total + 2``), past which a
far-above-saturation system raises :class:`~repro.errors.SimulationError`
instead of returning an unconverged path.  FIFO makes one pass and
needs no ceiling.

**Batching**: R replications' path sets stack with arc ids offset by
``replication * num_arcs``, so one solve settles R disjoint
sub-systems at once, each bit-identical to its sequential run.  Under
PS a replication's sub-system iterates independently of the others
(its chained rows and dirty arcs never cross the offset boundary), and
once it converges its rows drop out of the remaining sweeps entirely
(rep-blocked convergence, made observable by
``FixedPointResult.sweep_rows``).  A single replication is a batch of
one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.engines.registry import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["FixedPointEngine"]


@register_engine
class FixedPointEngine(EnginePlugin):
    name = "fixedpoint"
    aliases = ("fixed-point", "fp", "event", "eventsim", "calendar")
    summary = "vectorised fixed-point solver on explicit arc paths (every network)"
    capabilities = EngineCapabilities(
        kind="fixed-point",
        disciplines=("fifo", "ps"),
        networks=("*",),
        batching=True,
    )

    def batch_deliveries(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        samples: List["TrafficSample"],
    ) -> List["np.ndarray"]:
        from repro.sim.fixedpoint import simulate_paths_fixed_point_batch

        net = spec.network_plugin
        return simulate_paths_fixed_point_batch(
            topology.num_arcs,
            [s.times for s in samples],
            [net.greedy_paths(topology, spec, s) for s in samples],
            discipline=spec.discipline,
        )
