"""Network plugin for the d-dimensional butterfly (paper §4).

The §4.2 load law ``rho = lam * max(p, 1-p)`` (Prop 15 / eq. (17)),
the Props 14/17 delay bracket, the unique §4.1 paths (one arc per
level), and their per-level arc map, which makes the vectorised
feed-forward engine the native greedy simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.networks.api import NetworkPlugin
from repro.networks.registry import register_network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.sim.eventsim import FlatPaths
    from repro.sim.feedforward import ButterflyLevels
    from repro.topology.butterfly import Butterfly
    from repro.traffic.workload import TrafficSample

__all__ = ["ButterflyNetwork"]


@register_network
class ButterflyNetwork(NetworkPlugin):
    name = "butterfly"
    aliases = ("bf",)
    summary = "the d-dimensional butterfly (paper §4, the unfolded cube)"

    # -- topology ------------------------------------------------------------

    def build_topology(self, spec: "ScenarioSpec") -> "Butterfly":
        from repro.topology.butterfly import Butterfly

        return Butterfly(spec.d)

    # -- the §4.2 load law ---------------------------------------------------

    def lam_for_load(self, spec: "ScenarioSpec") -> float:
        from repro.core.load import butterfly_lam_for_load

        return butterfly_lam_for_load(spec.rho, spec.p)

    def load_factor(self, spec: "ScenarioSpec") -> float:
        return spec.lam * max(spec.p, 1.0 - spec.p)

    # -- the traffic interface -----------------------------------------------

    def num_sources(self, spec: "ScenarioSpec") -> int:
        """Packets are born at the ``2**d`` level-0 inputs; origins and
        destinations are *row* addresses."""
        return 1 << spec.d

    def address_bits(self, spec: "ScenarioSpec") -> int:
        """Rows are d-bit addresses — the full bit-mask traffic family
        (Bernoulli flips, bit reversal, transpose, complement) applies."""
        return spec.d

    # -- greedy routing ------------------------------------------------------

    # build_workload: the NetworkPlugin default — the traffic axis
    # drives the §4.2 row workload through num_sources / address_bits

    def greedy_paths(
        self, topology: "Butterfly", spec: "ScenarioSpec", sample: "TrafficSample"
    ) -> "FlatPaths":
        from repro.sim.eventsim import butterfly_packet_paths

        return butterfly_packet_paths(topology, sample)

    def greedy_levels(
        self, topology: "Butterfly", spec: "ScenarioSpec"
    ) -> "ButterflyLevels":
        from repro.sim.feedforward import ButterflyLevels

        return ButterflyLevels(topology)

    # -- theory --------------------------------------------------------------

    def greedy_theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """Props 14/17: the butterfly delay bracket of §4."""
        from repro.core import bounds as B

        return (
            B.butterfly_delay_lower_bound(spec.d, spec.resolved_lam, spec.p),
            B.butterfly_delay_upper_bound(spec.d, spec.resolved_lam, spec.p),
        )

    def mean_greedy_hops(self, spec: "ScenarioSpec") -> float:
        """Exactly d: every §4.1 path crosses one arc per level."""
        return float(spec.d)

    def greedy_hop_pmf(self, spec: "ScenarioSpec") -> "np.ndarray":
        """Degenerate at d hops."""
        import numpy as np

        pmf = np.zeros(spec.d + 1)
        pmf[spec.d] = 1.0
        return pmf

    def bound_report(self, spec: "ScenarioSpec") -> List[Tuple[str, Any]]:
        from repro.networks.api import no_paper_law_report

        off_law = no_paper_law_report(spec)
        if off_law is not None:
            return off_law
        rho = spec.resolved_rho
        rows: List[Tuple[str, Any]] = [
            ("per-input rate lam", spec.resolved_lam),
            ("load factor rho", rho),
            ("stable (Prop 16)", rho < 1),
        ]
        if rho < 1:
            lower, upper = self.greedy_theory_bounds(spec)
            rows += [
                ("Prop 14 lower", lower),
                ("Prop 17 upper", upper),
            ]
        return rows
