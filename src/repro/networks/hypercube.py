"""Network plugin for the d-dimensional binary hypercube (paper §1–3).

Everything network-specific the stack used to hard-code behind
``if network == "hypercube"`` lives here: the §2.1 load law
``rho = lam * p``, the Props 2/3/12/13 theory, the canonical
dimension-order paths, and their per-level arc map (any global
``dim_order``), which makes the vectorised feed-forward engine the
native greedy simulator.  The workload itself comes from the **traffic
axis** (:mod:`repro.traffic`): this plugin only declares that its
``2**d`` sources live in a ``d``-bit XOR address space, and the spec's
traffic plugin does the rest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.networks.api import NetworkPlugin
from repro.networks.registry import register_network
from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.sim.eventsim import FlatPaths
    from repro.sim.feedforward import HypercubeLevels
    from repro.topology.hypercube import Hypercube
    from repro.traffic.workload import TrafficSample

__all__ = ["HypercubeNetwork"]


@register_network
class HypercubeNetwork(NetworkPlugin):
    name = "hypercube"
    aliases = ("cube", "d-cube")
    summary = "the d-dimensional binary hypercube (paper §1-3, 2**d nodes)"
    options = (
        OptionSpec(
            "dim_order",
            kind="int_tuple",
            description="global dimension crossing order "
            "(vectorized engine only)",
        ),
    )

    # -- topology ------------------------------------------------------------

    def build_topology(self, spec: "ScenarioSpec") -> "Hypercube":
        from repro.topology.hypercube import Hypercube

        return Hypercube(spec.d)

    # -- the traffic interface -----------------------------------------------

    def num_sources(self, spec: "ScenarioSpec") -> int:
        return 1 << spec.d

    def address_bits(self, spec: "ScenarioSpec") -> int:
        return spec.d

    # -- the §2.1 load law ---------------------------------------------------

    def lam_for_load(self, spec: "ScenarioSpec") -> float:
        from repro.core.load import lam_for_load

        return lam_for_load(spec.rho, spec.p)

    def load_factor(self, spec: "ScenarioSpec") -> float:
        return spec.lam * spec.p

    # -- greedy routing ------------------------------------------------------

    # build_workload: the NetworkPlugin default — the spec's traffic
    # plugin drives the eq. (1) workload (and every other law) through
    # num_sources / address_bits above

    def greedy_paths(
        self, topology: "Hypercube", spec: "ScenarioSpec", sample: "TrafficSample"
    ) -> "FlatPaths":
        from repro.sim.eventsim import hypercube_paths

        return hypercube_paths(topology.d, sample.origins, sample.destinations)

    def greedy_levels(
        self, topology: "Hypercube", spec: "ScenarioSpec"
    ) -> "HypercubeLevels":
        from repro.sim.feedforward import HypercubeLevels

        return HypercubeLevels(topology, spec.option("dim_order"))

    # -- theory --------------------------------------------------------------

    def greedy_theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """Props 13/12: the greedy delay sandwich of §3."""
        from repro.core import bounds as B

        return (
            B.greedy_delay_lower_bound(spec.d, spec.resolved_lam, spec.p),
            B.greedy_delay_upper_bound(spec.d, spec.resolved_lam, spec.p),
        )

    def mean_greedy_hops(self, spec: "ScenarioSpec") -> float:
        """``d * p``: the Binomial(d, p) mean of eq. (1)."""
        return spec.d * spec.p

    def greedy_hop_pmf(self, spec: "ScenarioSpec") -> "np.ndarray":
        """Binomial(d, p) — Lemma 1's independent bit flips."""
        import math

        import numpy as np

        d, p = spec.d, spec.p
        return np.array(
            [math.comb(d, k) * p**k * (1 - p) ** (d - k) for k in range(d + 1)]
        )

    def bound_report(self, spec: "ScenarioSpec") -> List[Tuple[str, Any]]:
        from repro.core import bounds as B
        from repro.networks.api import no_paper_law_report

        off_law = no_paper_law_report(spec)
        if off_law is not None:
            return off_law
        d, rho, p = spec.d, spec.resolved_rho, spec.p
        lam = spec.resolved_lam
        rows: List[Tuple[str, Any]] = [
            ("per-node rate lam", lam),
            ("load factor rho", rho),
            ("stable (Prop 6)", rho < 1),
            ("zero-contention dp", B.zero_contention_delay(d, p)),
        ]
        if rho < 1:
            lower, upper = self.greedy_theory_bounds(spec)
            rows += [
                ("Prop 2 universal lower", B.universal_delay_lower_bound(d, lam, p)),
                ("Prop 3 oblivious lower", B.oblivious_delay_lower_bound(d, lam, p)),
                ("Prop 13 greedy lower", lower),
                ("Prop 12 greedy upper", upper),
                ("queue/node bound", B.mean_queue_per_node_bound(d, lam, p)),
            ]
        return rows
