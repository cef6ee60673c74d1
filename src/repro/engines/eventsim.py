"""Engine plugin for the event calendar (the cross-validation engine).

Wraps :func:`repro.sim.eventsim.simulate_paths_event_driven`: events in
chronological order replaying per-packet arc paths, deliberately
independent of the levelled structure.  It drives **every** network
(third-party ones included) through the
:meth:`~repro.networks.api.NetworkPlugin.greedy_paths` hook.  FIFO runs
the fixed-point engine's time-ordered pass and PS a heap calendar of
its own, and its sample paths agree with the vectorised engines —
bit for bit under FIFO, to float round-off under PS — which is what
makes it the reference the fast engines are validated against.

Batching: replications are independent, so R replications share one
calendar with replication *r*'s arc ids offset by ``r * num_arcs``
(:func:`repro.sim.eventsim.simulate_paths_event_driven_batch`).  The
merged calendar is R times denser — which is where the FIFO pass's
fixed per-window cost amortises — and each replication's
deliveries stay bit-identical to its own sequential run, so the
per-replication cache cells cannot tell the two routes apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.engines.registry import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["EventEngine"]


@register_engine
class EventEngine(EnginePlugin):
    name = "event"
    aliases = ("eventsim", "calendar")
    summary = "replication-batched event calendar over explicit arc paths"
    capabilities = EngineCapabilities(
        kind="event",
        disciplines=("fifo", "ps"),
        networks=("*",),
        batching=True,
    )

    def simulate(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        sample: "TrafficSample",
    ) -> "np.ndarray":
        paths = spec.network_plugin.greedy_paths(topology, spec, sample)
        return self.run_paths(
            topology.num_arcs,
            sample.times,
            paths,
            discipline=spec.discipline,
        )

    def run_paths(
        self,
        num_arcs: int,
        birth_times: "np.ndarray",
        paths: Sequence[Sequence[int]],
        *,
        discipline: str = "fifo",
        service: float = 1.0,
    ) -> "np.ndarray":
        from repro.sim.eventsim import simulate_paths_event_driven

        return simulate_paths_event_driven(
            num_arcs,
            birth_times,
            paths,
            discipline=discipline,
            service=service,
        ).delivery

    def batch_deliveries(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        samples: List["TrafficSample"],
    ) -> List["np.ndarray"]:
        from repro.sim.eventsim import simulate_paths_event_driven_batch

        net = spec.network_plugin
        return simulate_paths_event_driven_batch(
            topology.num_arcs,
            [sample.times for sample in samples],
            [net.greedy_paths(topology, spec, sample) for sample in samples],
            discipline=spec.discipline,
        )
