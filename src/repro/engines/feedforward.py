"""Engine plugin for the levelled feed-forward sweep (the HPC path).

The paper's central computational trick: the equivalent networks Q
(§3.1) and R (§4.3) are *levelled* (Property B), so a whole sample
path solves level by level with **no event calendar** — one closed-form
Lindley recursion (FIFO) or exact fair-share construction (PS) per
server, all servers of a level in one vectorised shot
(:func:`repro.sim.feedforward.serve_level`).

The engine drives any network that hands it a per-level arc map
(:meth:`~repro.networks.api.NetworkPlugin.greedy_levels` — which
levels a packet crosses and which arc it holds at each), through one
generic kernel, :func:`~repro.sim.feedforward.simulate_levelled`.
Networks without a map run on the fixed-point engine instead.  Every
route goes through :meth:`FeedForwardEngine.batch_deliveries`; a
single replication is a batch of one.

**Batching** is where the level sweep pays twice: R replications'
workload arrays stack into one set of parallel arrays (arc ids offset
by ``replication * num_arcs`` keep the R sub-systems disjoint), and the
level loop runs **once** for the whole batch.  Profiling showed the
naive all-R stack *loses* to R sequential runs on arc-rich cells: the
per-level sort costs about the same either way (one stacked sort or
R standalone ones), so what remains is pure overhead —
full-size gather/scatter passes over stacked arrays that fall out of
cache.  The engine therefore stacks replications in **sub-batches**
sized so one level's rows stay cache-resident, which keeps the
amortisation of the level loop while restoring cache locality.  Each
replication's sub-path is bit-identical to its sequential run
(golden-pinned) whatever the sub-batch size, because every per-arc
arrival sequence is unchanged.

**Chunked-horizon mode** (the ``chunk_packets`` option) streams the
replications one by one through the same kernel, in birth-ordered
windows of packets with per-arc queue state carried between windows,
so peak memory is bounded by the chunk size and the topology instead
of the horizon — the d ≥ 20 regime.  FIFO carries (count,
running-Lindley-max) per arc, PS the in-service packets of each busy
arc; both are bit-identical to the one-window sweep at every chunk
size (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.engines.registry import register_engine
from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["FeedForwardEngine"]

#: per-level row budget a sub-batch should stay under: small enough
#: that one level's sort + Lindley arrays live in cache, large enough
#: to amortise the per-level Python overhead across replications
_TARGET_LEVEL_ROWS = 16384


@register_engine
class FeedForwardEngine(EnginePlugin):
    name = "feedforward"
    aliases = ("ff", "levelled")
    summary = "level-by-level vectorised sweep of levelled networks (§3.1/§4.3)"
    capabilities = EngineCapabilities(
        kind="levelled",
        disciplines=("fifo", "ps"),
        # admissibility is structural, not a name list: any network —
        # third-party included — that declares a per-level arc map
        # (NetworkPlugin.greedy_levels) can ride this engine
        networks=("*",),
        options=(
            OptionSpec(
                "chunk_packets",
                kind="int",
                description="sweep each replication alone, in "
                "birth-ordered windows of this many packets with per-arc "
                "queue state carried between windows: peak memory "
                "bounded by the chunk and the topology instead of the "
                "horizon (bit-identical to the unchunked sweep under "
                "FIFO and PS; PS carries the in-service packets)",
            ),
        ),
    )

    def supports(self, spec: "ScenarioSpec"):
        reason = super().supports(spec)
        if reason is not None:
            return reason
        if spec.network_plugin.native_engine() != self.name:
            return (
                f"network {spec.network!r} provides no levelled "
                "level-sweep map (its native vectorised engine is "
                f"{spec.network_plugin.native_engine()!r})"
            )
        # the kernel refuses it too, but only once the spec runs
        chunk = spec.option("chunk_packets")
        if isinstance(chunk, int) and chunk < 1:
            return f"chunk_packets must be >= 1, got {chunk}"
        return None

    @staticmethod
    def _sub_batch_reps(samples: List["TrafficSample"]) -> int:
        """How many replications to stack per sub-batch.

        A level of one replication touches roughly half its packets
        (popcount of a uniform mask), so ``mean_packets / 2`` rows; the
        sub-batch stacks as many replications as keep a level under
        :data:`_TARGET_LEVEL_ROWS` rows.  Profiled on arc-rich cells:
        the all-R stack's full-size passes fall out of cache and lose
        to sequential runs, while cache-resident sub-batches win.
        """
        mean_packets = sum(s.num_packets for s in samples) / max(len(samples), 1)
        rows_per_level = max(1, int(mean_packets) // 2)
        return max(1, _TARGET_LEVEL_ROWS // rows_per_level)

    def batch_deliveries(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        samples: List["TrafficSample"],
    ) -> List["np.ndarray"]:
        from repro.sim.feedforward import simulate_levelled

        levels = spec.network_plugin.greedy_levels(topology, spec)
        chunk = spec.option("chunk_packets")
        # bounded memory beats batched throughput by definition: under
        # chunk_packets the replications stream one by one
        reps = self._sub_batch_reps(samples) if chunk is None else 1
        deliveries: List["np.ndarray"] = []
        for lo in range(0, len(samples), reps):
            batch, _ = simulate_levelled(
                levels, samples[lo : lo + reps], spec.discipline,
                chunk_packets=chunk,
            )
            deliveries.extend(batch)
        return deliveries
