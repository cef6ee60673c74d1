"""Network plugin for the bidirectional ring (Papillon-style greedy).

The first topology added *through* the plugin API rather than wired
into the core — following the related-work direction of *Papillon:
Greedy Routing in Rings* (Abraham, Malkhi, Manku).  The ring has
``n = 2**d`` nodes (``d`` plays the same "size exponent" role as the
cube dimension) and uniform destinations; the ``direction`` option
selects the greedy variant:

* ``"absolute"`` (default) — shortest direction, ``min(k, n-k)`` hops
  for clockwise offset ``k``, ties at ``n/2`` broken clockwise;
* ``"clockwise"`` — the unidirectional ring, ``k`` hops.

**Load law.**  Uniform offsets make every clockwise arc carry
``lam * E[cw hops]`` and every counter-clockwise arc
``lam * E[ccw hops]``; the clockwise class is the (weak) bottleneck
because ties break clockwise, so ``rho = lam * E[cw hops]`` with
``E[cw hops] = (1/n) * sum_{2k <= n} k`` under ``absolute`` and
``(n-1)/2`` under ``clockwise``.

**Engines.**  Greedy ring paths wrap around the arc id space, so the
network is *not* levelled: the native vectorised engine is the
fixed-point solver (:mod:`repro.sim.fixedpoint`), the one path
engine, which also cross-validates the butterfly's level sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.networks.api import (
    NetworkPlugin,
    uniform_ring_bottleneck_hops,
    uniform_ring_hop_pmf,
    uniform_ring_mean_hops,
)
from repro.networks.registry import register_network
from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.sim.eventsim import FlatPaths
    from repro.topology.ring import Ring
    from repro.traffic.workload import TrafficSample

__all__ = ["RingNetwork"]


@register_network
class RingNetwork(NetworkPlugin):
    name = "ring"
    aliases = ("cycle",)
    summary = "the 2**d-node bidirectional ring (Papillon-style greedy)"
    options = (
        OptionSpec(
            "direction",
            kind="str",
            default="absolute",
            choices=("absolute", "clockwise"),
            description="greedy variant: shortest absolute distance or "
            "unidirectional clockwise",
        ),
    )

    @staticmethod
    def _variant(spec: "ScenarioSpec") -> str:
        return spec.option("direction", "absolute")

    @staticmethod
    def _n(spec: "ScenarioSpec") -> int:
        return 1 << spec.d

    # -- topology ------------------------------------------------------------

    def build_topology(self, spec: "ScenarioSpec") -> "Ring":
        from repro.topology.ring import Ring

        return Ring(self._n(spec))

    # -- the load law --------------------------------------------------------

    def lam_for_load(self, spec: "ScenarioSpec") -> float:
        return spec.rho / uniform_ring_bottleneck_hops(
            self._n(spec), self._variant(spec)
        )

    def load_factor(self, spec: "ScenarioSpec") -> float:
        return spec.lam * uniform_ring_bottleneck_hops(
            self._n(spec), self._variant(spec)
        )

    # -- the traffic interface -----------------------------------------------

    def num_sources(self, spec: "ScenarioSpec") -> int:
        return self._n(spec)

    # address_bits: the NetworkPlugin default (None) — ring addresses
    # are cyclic node ids, not an XOR algebra, so the bit-mask traffic
    # family is inadmissible and uniform traffic degrades to the
    # uniform node law

    # -- greedy routing ------------------------------------------------------

    # build_workload: the NetworkPlugin default — the traffic axis

    def greedy_paths(
        self, topology: "Ring", spec: "ScenarioSpec", sample: "TrafficSample"
    ) -> "FlatPaths":
        from repro.sim.eventsim import torus_packet_paths

        clockwise = self._variant(spec) == "clockwise"
        return torus_packet_paths(topology.n, 1, sample, clockwise)

    # greedy_levels: the NetworkPlugin default (None, so the
    # fixed-point engine runs greedy_paths) — the ring is not levelled

    # -- theory --------------------------------------------------------------

    def greedy_theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """Zero-contention lower bound: every hop costs at least one
        unit of service, so ``E[T] >= E[hops]``.  No closed-form upper
        bound is known for the ring in the paper's framework."""
        return (self.mean_greedy_hops(spec), float("inf"))

    def mean_greedy_hops(self, spec: "ScenarioSpec") -> float:
        return uniform_ring_mean_hops(self._n(spec), self._variant(spec))

    def greedy_hop_pmf(self, spec: "ScenarioSpec") -> "np.ndarray":
        return uniform_ring_hop_pmf(self._n(spec), self._variant(spec))
