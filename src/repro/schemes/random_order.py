"""Dimension-ordering ablation (experiment E13).

The paper's scheme crosses dimensions in *increasing index order*; the
analysis leans on the induced levelled structure (Property B), but the
scheme itself would route correctly under any ordering.  This module
provides:

* :func:`simulate_fixed_order` — any fixed global permutation of the
  dimensions (still levelled, still analysable; by node-relabelling
  symmetry its delay law is identical to the canonical order's);
* :func:`simulate_random_order` — an *independent uniformly random*
  order per packet (not levelled: two packets can cross the same pair
  of dimensions in opposite orders, creating cyclic server
  dependencies), simulated on the fixed-point path engine.

Comparing the two quantifies how much of greedy routing's performance
the levelled structure actually buys — the paper's design choice made
measurable.
"""

from __future__ import annotations

from typing import Sequence

from repro.rng import SeedLike, as_generator
from repro.sim.eventsim import FlatPaths, hypercube_arcs_flat, hypercube_dims_flat
from repro.sim.feedforward import FeedForwardResult, simulate_hypercube_greedy
from repro.sim.fixedpoint import (
    FixedPointResult,
    simulate_paths_fixed_point,
    simulate_paths_fixed_point_batch,
)
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = ["simulate_fixed_order", "simulate_random_order"]


def simulate_fixed_order(
    cube: Hypercube,
    sample: TrafficSample,
    dim_order: Sequence[int],
) -> FeedForwardResult:
    """Greedy routing crossing dimensions in a fixed global order.

    ``dim_order`` is a permutation of ``range(d)`` shared by every
    packet; the network stays levelled, so the fast engine applies.
    """
    return simulate_hypercube_greedy(cube, sample, dim_order=dim_order)


def _random_order_paths(
    cube: Hypercube, sample: TrafficSample, gen
) -> FlatPaths:
    """Flat arc paths with an independent random dimension order per
    packet.

    RNG contract (golden-pinned): one shuffle per packet in packet
    order.  ``Generator.shuffle`` on a slice view of the packed
    dimension array consumes the stream exactly as the historical
    per-packet list shuffle did (and a length-``<= 1`` shuffle consumes
    nothing, so those packets are skipped); only the path *assembly*
    around the shuffles is vectorised.
    """
    dims_flat, start = hypercube_dims_flat(
        cube.d, sample.origins, sample.destinations
    )
    shuffle = gen.shuffle
    st = start.tolist()
    for i in range(sample.num_packets):
        s = st[i]
        e = st[i + 1]
        if e - s > 1:
            shuffle(dims_flat[s:e])
    arcs = hypercube_arcs_flat(
        cube.num_nodes, sample.origins, dims_flat, start
    )
    return FlatPaths(arcs, start)


def simulate_random_order(
    cube: Hypercube,
    sample: TrafficSample,
    rng: SeedLike = None,
    *,
    record_arc_log: bool = False,
) -> FixedPointResult:
    """Greedy routing with an independent random order per packet.

    Each packet shuffles its own set of differing dimensions uniformly;
    the resulting server graph is cyclic, so the fixed-point path
    engine is used.  Delivery times come back aligned with the sample's
    packets.
    """
    gen = as_generator(rng)
    paths = _random_order_paths(cube, sample, gen)
    return simulate_paths_fixed_point(
        cube.num_arcs,
        sample.times,
        paths,
        record_arc_log=record_arc_log,
    )


# ---------------------------------------------------------------------------
# scenario-runner plugin
# ---------------------------------------------------------------------------

from typing import TYPE_CHECKING

from repro.plugins.api import Capabilities, Runner, SchemePlugin
from repro.plugins.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ScenarioSpec


@register_scheme
class RandomOrderPlugin(SchemePlugin):
    """Per-packet random dimension order: on the fixed-point path engine
    (the server graph is cyclic), FIFO only.

    RNG contract (golden-pinned): the replication stream first draws
    the workload sample, then one shuffle per packet in packet order.
    """

    name = "random_order"
    summary = "greedy with per-packet random dimension order (E13 ablation)"
    capabilities = Capabilities(
        networks=("hypercube",),
        engines=("fixedpoint",),
        # routes whatever the workload sample holds (the shuffle is per
        # packet, not per law), so any registered traffic law drives it
        traffics=("*",),
    )

    def native_engine(self, spec: "ScenarioSpec"):
        return "fixedpoint"

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        # a batch of one, as the base class derives it; defined here so
        # perfbench's tracer can name it
        return super().prepare(spec)

    def batch_runner(self, spec: "ScenarioSpec"):
        """Stack R replications into one fixed-point solve.

        Workloads draw through ``build_workload_batch`` (each from its
        own seed's stream), the per-packet shuffles follow from the
        same stream — workload first, then shuffles, the golden-pinned
        order — and the R path sets run as one arc-offset batch.  At
        ``jobs > 1`` each worker runs this on its own contiguous seed
        range.
        """
        from repro.engines.api import batch_output

        cube = Hypercube(spec.d)

        def run_batch(seeds):
            gens = [as_generator(seed) for seed in seeds]
            samples = spec.network_plugin.build_workload_batch(
                spec, spec.horizon, gens
            )
            paths = [
                _random_order_paths(cube, sample, gen)
                for sample, gen in zip(samples, gens)
            ]
            deliveries = simulate_paths_fixed_point_batch(
                cube.num_arcs,
                [sample.times for sample in samples],
                paths,
            )
            return [
                batch_output(spec, sample, delivery)
                for sample, delivery in zip(samples, deliveries)
            ]

        return run_batch
