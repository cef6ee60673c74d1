"""Network plugin for the d-dimensional torus (wrap-around grid).

The second topology shipped through the plugin API, after the
related-work direction of Dietzfelbinger & Woelfel's greedy
lower-bound work on higher-dimensional grids.  The torus has
``side**d`` nodes (``side`` is a network option, default 4; ``d`` is
the spec's dimension field) and uniform destinations; greedy routing
is dimension-order with the shorter direction inside each dimension
(ties at ``side/2`` broken in the + direction) — exactly the
hypercube's rule with radix ``side`` instead of 2.

**Load law.**  Per-dimension offsets are i.i.d. uniform over
``range(side)``, so every + arc of every dimension carries
``lam * E[+ hops per dimension]`` — the same per-ring bottleneck
arithmetic as :mod:`repro.networks.ring` with ``n = side`` — giving
``rho = lam * (1/side) * sum_{2k <= side} k``, independent of ``d``.

**Engines.**  Multi-hop in-dimension movement revisits arc classes, so
like the ring the torus is not levelled; the native vectorised engine
is the fixed-point path solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.errors import ConfigurationError
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
    from repro.topology.torus import Torus
    from repro.traffic.workload import TrafficSample

__all__ = ["TorusNetwork"]


@register_network
class TorusNetwork(NetworkPlugin):
    name = "torus"
    aliases = ("grid",)
    summary = "the side**d-node wrap-around grid (dimension-order greedy)"
    options = (
        OptionSpec(
            "side",
            kind="int",
            default=4,
            description="points per dimension (>= 3); the torus has "
            "side**d nodes",
        ),
    )

    @staticmethod
    def _side(spec: "ScenarioSpec") -> int:
        return spec.option("side", 4)

    def validate(self, spec: "ScenarioSpec") -> None:
        side = self._side(spec)
        if side < 3:
            raise ConfigurationError(
                f"torus side must be >= 3 (the two directions must be "
                f"distinct arcs), got {side}"
            )

    # -- topology ------------------------------------------------------------

    def build_topology(self, spec: "ScenarioSpec") -> "Torus":
        from repro.topology.torus import Torus

        return Torus(self._side(spec), spec.d)

    # -- the load law --------------------------------------------------------

    def lam_for_load(self, spec: "ScenarioSpec") -> float:
        return spec.rho / uniform_ring_bottleneck_hops(self._side(spec))

    def load_factor(self, spec: "ScenarioSpec") -> float:
        return spec.lam * uniform_ring_bottleneck_hops(self._side(spec))

    # -- the traffic interface -----------------------------------------------

    def num_sources(self, spec: "ScenarioSpec") -> int:
        return self._side(spec) ** spec.d

    # address_bits: the NetworkPlugin default (None) — torus addresses
    # are mixed-radix coordinates, not an XOR algebra

    # -- greedy routing ------------------------------------------------------

    # build_workload: the NetworkPlugin default — the traffic axis

    def greedy_paths(
        self, topology: "Torus", spec: "ScenarioSpec", sample: "TrafficSample"
    ) -> "FlatPaths":
        from repro.sim.eventsim import torus_packet_paths

        return torus_packet_paths(topology.side, topology.d, sample)

    # greedy_levels: the NetworkPlugin default (None, so the
    # fixed-point engine runs greedy_paths) — multi-hop in-dimension movement is not levelled

    # -- theory --------------------------------------------------------------

    def greedy_theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """Zero-contention lower bound ``E[T] >= E[hops]``; no known
        closed-form upper bound."""
        return (self.mean_greedy_hops(spec), float("inf"))

    def mean_greedy_hops(self, spec: "ScenarioSpec") -> float:
        return spec.d * uniform_ring_mean_hops(self._side(spec))

    def greedy_hop_pmf(self, spec: "ScenarioSpec") -> "np.ndarray":
        """d-fold convolution of the per-dimension ring distribution."""
        import numpy as np

        per_dim = uniform_ring_hop_pmf(self._side(spec))
        pmf = np.array([1.0])
        for _ in range(spec.d):
            pmf = np.convolve(pmf, per_dim)
        return pmf
