"""Engine plugin for the event engine (the cross-validation engine).

Replays per-packet arc paths, deliberately independent of the levelled
structure, so it drives **every** network (third-party ones included)
through the :meth:`~repro.networks.api.NetworkPlugin.greedy_paths`
hook.  It runs the code of
:class:`~repro.engines.fixedpoint.FixedPointEngine`: FIFO in one
time-ordered pass, PS by sweeping to a fixed point, so the two path
engines agree bit for bit under both disciplines, and with the
feed-forward engine wherever it runs.  It stays an engine of its own,
under its own name and aliases, so ``engine="event"`` cells keep their
content hashes; like the fixed-point engine, it declares no options.

Batching: replications are independent, so R replications share one
solve with replication *r*'s arc ids offset by ``r * num_arcs``
(:func:`repro.sim.fixedpoint.simulate_paths_fixed_point_batch`).  The
stacked system is R times denser — which is where the FIFO pass's
fixed per-window cost amortises — PS converges one replication block at
a time, and each replication's deliveries stay bit-identical to its own
sequential run, so the per-replication cache cells cannot tell the two
routes apart.
"""

from __future__ import annotations

from repro.engines.api import EngineCapabilities
from repro.engines.fixedpoint import FixedPointEngine
from repro.engines.registry import register_engine

__all__ = ["EventEngine"]


@register_engine
class EventEngine(FixedPointEngine):
    name = "event"
    aliases = ("eventsim", "calendar")
    summary = "cross-validation engine on explicit arc paths (fixed-point solvers)"
    capabilities = EngineCapabilities(
        kind="event",
        disciplines=("fifo", "ps"),
        networks=("*",),
        batching=True,
    )
