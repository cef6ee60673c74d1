"""The network-plugin protocol: topologies as first-class plugins.

PR 2 opened the *scheme* axis with capability-declaring plugins; this
module opens the *network* axis the same way.  A
:class:`NetworkPlugin` is the single place a topology touches the
scenario subsystem.  It declares its identity (``name`` + ``aliases``)
and its network-scoped ``extra`` options, and implements the hooks the
rest of the stack used to hard-code per network:

* :meth:`~NetworkPlugin.build_topology` — the
  :class:`~repro.topology.base.Topology` for a spec's parameters;
* :meth:`~NetworkPlugin.lam_for_load` / :meth:`~NetworkPlugin.load_factor`
  — the load-factor ↔ arrival-rate law (``ScenarioSpec.resolved_lam``
  / ``resolved_rho`` delegate here);
* :meth:`~NetworkPlugin.num_sources` / :meth:`~NetworkPlugin.address_bits`
  — the node space the **traffic axis** drives: how many sources the
  network exposes and whether its addresses carry the d-bit XOR
  algebra; :meth:`~NetworkPlugin.build_workload` delegates to the
  spec's resolved :class:`~repro.traffic.api.TrafficPlugin`, so the
  arrival process and destination law are a fourth plugin axis rather
  than per-network code;
* :meth:`~NetworkPlugin.greedy_paths` — per-packet arc paths, which
  the fixed-point path engine runs on;
* :meth:`~NetworkPlugin.greedy_levels` — the per-level arc map of a
  levelled network, which hands it to the level-by-level feed-forward
  engine (one-shot, replication-batched and chunked routes alike);
  networks without one run on the fixed-point engine;
* :meth:`~NetworkPlugin.greedy_theory_bounds` /
  :meth:`~NetworkPlugin.bound_report` — the closed-form theory, shared
  by the parallel engine's brackets and the ``repro bounds`` CLI so
  the two can never disagree;
* :meth:`~NetworkPlugin.mean_greedy_hops` /
  :meth:`~NetworkPlugin.greedy_hop_pmf` — the greedy hop-count
  distribution.

Like the scheme API, this module is dependency-light (no numpy import
at runtime, no simulator imports) so plugin modules can import it
without cycles; concrete plugins import their machinery lazily.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.sim.eventsim import FlatPaths
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["NetworkPlugin"]


class NetworkPlugin:
    """Base class / protocol for network plugins.

    Subclasses set :attr:`name` (and optionally :attr:`aliases`,
    :attr:`summary`, :attr:`options`), implement the topology /
    load-law / greedy hooks, and may extend :meth:`validate` with
    network-specific cross-field rules.
    """

    #: registry key; also the canonical ``ScenarioSpec.network`` value
    name: str = ""
    #: alternative spellings accepted by specs and the CLI; a spec
    #: built with an alias is normalised to :attr:`name` *before*
    #: content-hashing, so aliases share cache cells
    aliases: Tuple[str, ...] = ()
    #: one-line human description shown by ``repro networks``
    summary: str = ""
    #: network-scoped ``extra`` knobs; validated alongside the scheme's
    #: declared options (the scheme wins on a name collision)
    options: Tuple[OptionSpec, ...] = ()

    # -- option schema -------------------------------------------------------

    def option_spec(self, name: str) -> Optional[OptionSpec]:
        for opt in self.options:
            if opt.name == name:
                return opt
        return None

    def option_names(self) -> Tuple[str, ...]:
        return tuple(opt.name for opt in self.options)

    # -- validation ----------------------------------------------------------

    def validate(self, spec: "ScenarioSpec") -> None:
        """Network-specific cross-field rules (default: none)."""

    # -- topology ------------------------------------------------------------

    def build_topology(self, spec: "ScenarioSpec") -> "Topology":
        """The :class:`~repro.topology.base.Topology` for *spec*'s
        parameters (``d`` plus any network options)."""
        raise NotImplementedError  # pragma: no cover - protocol

    # -- the load law --------------------------------------------------------

    def lam_for_load(self, spec: "ScenarioSpec") -> float:
        """Per-node arrival rate achieving load factor ``spec.rho``."""
        raise NotImplementedError  # pragma: no cover - protocol

    def load_factor(self, spec: "ScenarioSpec") -> float:
        """Load factor (bottleneck arc utilisation) at rate ``spec.lam``."""
        raise NotImplementedError  # pragma: no cover - protocol

    # -- the traffic interface -----------------------------------------------

    def num_sources(self, spec: "ScenarioSpec") -> int:
        """How many packet sources the network exposes (the node count
        traffic laws draw origins and node-addressed destinations
        from).  Default: the topology's node count; networks whose
        sources are a strict subset (the butterfly's level-0 rows)
        override."""
        return self.build_topology(spec).num_nodes

    def address_bits(self, spec: "ScenarioSpec") -> Optional[int]:
        """The network's bit-address width, when its node space is the
        d-bit XOR algebra traffic masks act on (hypercube rows,
        butterfly rows); ``None`` for node-addressed networks (ring,
        torus), which makes the bit-mask traffic family (bitrev,
        transpose, bitcomp) inadmissible and the uniform background
        degrade to the uniform node law."""
        return None

    # -- greedy routing ------------------------------------------------------

    def build_workload(self, spec: "ScenarioSpec") -> Any:
        """The dynamic greedy arrival process: an object whose
        ``generate(horizon, gen)`` returns a
        :class:`~repro.traffic.workload.TrafficSample`.

        Default: delegate to the spec's resolved
        :class:`~repro.traffic.api.TrafficPlugin` — the traffic axis
        owns who sends, when, and to whom, parameterised by this
        network's :meth:`num_sources` / :meth:`address_bits`.  Custom
        networks with a bespoke arrival process may still override.
        """
        return spec.traffic_plugin.build_workload(spec, self)

    def build_workload_batch(
        self,
        spec: "ScenarioSpec",
        horizon: float,
        gens: Sequence["np.random.Generator"],
    ) -> List["TrafficSample"]:
        """R realised workloads, entry *r* **bit-identical** to
        ``build_workload(spec).generate(horizon, gens[r])``: the
        workload (laws, permutation tables, topology-derived constants)
        is built once for the whole batch, then each sample is drawn
        from its own generator."""
        workload = self.build_workload(spec)
        return [workload.generate(horizon, gen) for gen in gens]

    def greedy_paths(
        self,
        topology: "Topology",
        spec: "ScenarioSpec",
        sample: "TrafficSample",
    ) -> Union["FlatPaths", Sequence[Sequence[int]]]:
        """Per-packet greedy arc paths (the path engine's hook): one
        arc-id sequence per packet, or a
        :class:`~repro.sim.eventsim.FlatPaths` holding the same paths
        packed flat, which spares the engines their flattening pass
        (every built-in network returns one)."""
        raise NotImplementedError  # pragma: no cover - protocol

    def greedy_levels(self, topology: "Topology", spec: "ScenarioSpec") -> Any:
        """The network's per-level arc map, when greedy routing keeps it
        levelled (Property B: a packet leaving level ``l`` only joins
        levels above ``l``); ``None`` otherwise (the default).

        A map exposes ``num_levels``, ``num_arcs``, ``crossings(diff)``
        (the level-space mask of the levels each packet crosses, from
        ``diff = origins XOR destinations``) and ``arcs(level, origins,
        diff)`` (the arc id each packet holds at that level) — see
        :class:`~repro.sim.feedforward.HypercubeLevels`.  Declaring one
        flips :meth:`native_engine` to the ``feedforward`` engine,
        which then runs the network's one-shot, replication-batched and
        chunked-horizon routes with no further code.
        """
        return None

    def native_engine(self) -> str:
        """Canonical name of the network's native *vectorised* engine
        (what ``engine="auto"``/``"vectorized"`` resolve to for greedy).

        Default: a network that declares a per-level arc map (overrides
        :meth:`greedy_levels`) is driven by the ``feedforward`` engine
        plugin; one that only ships :meth:`greedy_paths` is driven by
        the ``fixedpoint`` engine.  Custom networks may override to
        name any registered engine.
        """
        if type(self).greedy_levels is not NetworkPlugin.greedy_levels:
            return "feedforward"
        return "fixedpoint"

    # -- theory --------------------------------------------------------------

    def greedy_theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """The closed-form mean-delay bracket for greedy routing, when
        the network has one; default "no known constraint"."""
        return (-math.inf, math.inf)

    def mean_greedy_hops(self, spec: "ScenarioSpec") -> float:
        """Expected greedy path length (``nan`` when unknown)."""
        return float("nan")

    def greedy_hop_pmf(self, spec: "ScenarioSpec") -> "np.ndarray":
        """The greedy hop-count distribution: entry ``k`` is the
        probability that a packet crosses exactly ``k`` arcs."""
        raise NotImplementedError  # pragma: no cover - protocol

    def bound_report(self, spec: "ScenarioSpec") -> List[Tuple[str, Any]]:
        """Rows for the ``repro bounds`` CLI.  The bracket rows must be
        derived from :meth:`greedy_theory_bounds` so the CLI and the
        engine can never disagree — including the traffic gate: off the
        paper's law (:func:`no_paper_law_report`) the CLI reports "no
        known constraint", exactly like the runner's ``theory_bounds``.
        """
        off_law = no_paper_law_report(spec)
        if off_law is not None:
            return off_law
        rows: List[Tuple[str, Any]] = [
            ("per-node rate lam", spec.resolved_lam),
            ("load factor rho", spec.resolved_rho),
            ("stable", spec.resolved_rho < 1),
            ("mean greedy hops", self.mean_greedy_hops(spec)),
        ]
        lower, upper = self.greedy_theory_bounds(spec)
        rows.append(("greedy lower bound", lower))
        rows.append(("greedy upper bound", upper))
        return rows

    # -- cosmetics -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NetworkPlugin {self.name!r}>"


def no_paper_law_report(spec: "ScenarioSpec") -> Optional[List[Tuple[str, Any]]]:
    """The ``repro bounds`` rows for a spec whose traffic plugin does
    not declare ``paper_law`` — or ``None`` when the closed forms
    apply.  Shared by every network's :meth:`NetworkPlugin.bound_report`
    so the CLI can never print the eq. (1) stability verdict or delay
    bracket for a law the runner's ``theory_bounds`` refuses."""
    if spec.traffic_plugin.paper_law:
        return None
    return [
        ("per-node rate lam", spec.resolved_lam),
        ("traffic", spec.traffic),
        (
            "closed-form theory",
            "none: the paper's load law and delay brackets assume the "
            "eq. (1) uniform/Bernoulli traffic",
        ),
    ]


def uniform_ring_mean_hops(n: int, variant: str = "absolute") -> float:
    """Mean greedy hop count on an n-ring under uniform destinations.

    ``absolute``: ``min(k, n-k)`` averaged over the uniform clockwise
    offset ``k`` (ties at ``n/2`` are one offset, not two); exactly
    ``n/4`` for even n, ``(n*n - 1) / (4n)`` for odd n.
    ``clockwise``: ``(n-1)/2``.
    """
    if variant == "clockwise":
        return (n - 1) / 2.0
    return sum(min(k, n - k) for k in range(n)) / n


def uniform_ring_bottleneck_hops(n: int, variant: str = "absolute") -> float:
    """Mean *clockwise* hops per packet — the bottleneck direction's
    per-arc flow multiplier (ties at ``n/2`` break clockwise, so the
    clockwise arcs carry weakly more flow than the counter-clockwise
    ones; under ``clockwise`` every hop is clockwise)."""
    if variant == "clockwise":
        return (n - 1) / 2.0
    return sum(k for k in range(n) if 2 * k <= n) / n


def uniform_ring_hop_pmf(n: int, variant: str = "absolute") -> "np.ndarray":
    """Greedy hop-count pmf on an n-ring under uniform destinations
    (the torus convolves this per dimension with ``n = side``)."""
    import numpy as np

    if variant == "clockwise":
        return np.full(n, 1.0 / n)
    pmf = np.zeros(n // 2 + 1)
    for k in range(n):
        pmf[min(k, n - k)] += 1.0 / n
    return pmf


__all__ += [
    "no_paper_law_report",
    "uniform_ring_mean_hops",
    "uniform_ring_bottleneck_hops",
    "uniform_ring_hop_pmf",
]
