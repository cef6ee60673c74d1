"""The traffic-plugin protocol: workload laws as first-class plugins.

PR 2 opened the *scheme* axis, PR 3 the *network* axis, PR 4 the
*engine* axis; this module completes the four-axis design on the
**traffic** axis.  The paper's delay results hinge on the traffic
assumption (uniform random destinations, Poisson arrivals) — varying
exactly that assumption is how related work probes greedy routing
(Papillon's ring distance laws, the sharp degradation under non-ideal
workloads in Angel et al.), so the law a scenario runs under must be
as pluggable as its scheme, network and engine.

A :class:`TrafficPlugin` is the single place a workload law touches
the scenario subsystem.  It declares its identity (``name`` +
``aliases``), its traffic-scoped typed ``extra`` options, and whether
the paper's eq. (1) closed forms apply (:attr:`~TrafficPlugin.paper_law`),
and implements:

* :meth:`~TrafficPlugin.destination_law` — the destination sampler for
  a spec on a concrete network (consulting the network's address
  structure: d-bit XOR masks where
  :meth:`~repro.networks.api.NetworkPlugin.address_bits` says so,
  plain node ids elsewhere);
* :meth:`~TrafficPlugin.build_workload` — the arrival process bundled
  with the destinations: an object whose ``generate(horizon, gen)``
  returns a :class:`~repro.traffic.workload.TrafficSample` (Poisson
  superposition by default; bursty plugins override).  A replication
  draws its sample from its own generator only, so a batch of R
  samples is R independent draws whatever the law
  (:meth:`~repro.networks.api.NetworkPlugin.build_workload_batch`);
* the exact-theory hooks :meth:`~TrafficPlugin.mask_pmf` /
  :meth:`~TrafficPlugin.flip_probabilities` /
  :meth:`~TrafficPlugin.mean_distance` — closed forms over the d-bit
  mask algebra where they exist (``None`` where they do not), used by
  the conformance tests and the analysis layer.

Like the scheme/network/engine APIs, this module is dependency-light
(no numpy import at runtime, no simulator imports) so plugin modules
can import it without cycles; concrete plugins import their machinery
lazily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.errors import ConfigurationError
from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.networks.api import NetworkPlugin
    from repro.runner.spec import ScenarioSpec

__all__ = ["TrafficPlugin"]


class TrafficPlugin:
    """Base class / protocol for traffic plugins.

    Subclasses set :attr:`name` (and optionally :attr:`aliases`,
    :attr:`summary`, :attr:`options`), implement
    :meth:`destination_law` (and :meth:`build_workload` when the
    arrival process itself deviates from node-Poisson), and may extend
    :meth:`validate` / :meth:`supports` with law-specific rules.
    """

    #: registry key; also the canonical ``ScenarioSpec.traffic`` value
    name: str = ""
    #: alternative spellings accepted by specs and the CLI; a spec
    #: built with an alias is normalised to :attr:`name` *before*
    #: content-hashing, so aliases share cache cells
    aliases: Tuple[str, ...] = ()
    #: one-line human description shown by ``repro traffics``
    summary: str = ""
    #: traffic-scoped ``extra`` knobs; validated alongside the scheme's
    #: and network's declared options (scheme, then network, wins on a
    #: name collision)
    options: Tuple[OptionSpec, ...] = ()
    #: the paper's eq. (1) model holds (Bernoulli(p) flips, Poisson
    #: arrivals), so the closed-form load laws and delay brackets
    #: (Props 12/13 on the hypercube, 14/17 on the butterfly) apply
    paper_law: bool = False
    #: the law is expressed over d-bit addresses (XOR masks /
    #: permutations of ``range(2**d)``) and therefore only runs on
    #: networks exposing :meth:`~repro.networks.api.NetworkPlugin.address_bits`
    needs_address_bits: bool = False

    # -- option schema -------------------------------------------------------

    def option_spec(self, name: str) -> Optional[OptionSpec]:
        for opt in self.options:
            if opt.name == name:
                return opt
        return None

    def option_names(self) -> Tuple[str, ...]:
        return tuple(opt.name for opt in self.options)

    # -- admissibility -------------------------------------------------------

    def supports(self, spec: "ScenarioSpec") -> Optional[str]:
        """``None`` when the law can drive *spec*, else a reason.

        The default checks the :attr:`needs_address_bits` declaration
        against the network's address structure; subclasses add
        law-specific rules (transpose needs even d, ...).
        """
        if self.needs_address_bits and spec.network_plugin.address_bits(spec) is None:
            return (
                f"traffic {self.name!r} is defined over d-bit addresses, "
                f"but network {spec.network!r} exposes no bit-addressed "
                "node space (NetworkPlugin.address_bits)"
            )
        return None

    def validate(self, spec: "ScenarioSpec") -> None:
        """Traffic-specific cross-field rules.  The default rejects
        specs :meth:`supports` gives a reason against; subclasses
        extend (always calling ``super().validate(spec)`` first)."""
        reason = self.supports(spec)
        if reason is not None:
            raise ConfigurationError(
                f"traffic {self.name!r} cannot drive this spec: {reason}"
            )

    # -- sampling ------------------------------------------------------------

    def destination_law(
        self, spec: "ScenarioSpec", network: "NetworkPlugin"
    ) -> Any:
        """The destination sampler for *spec* on *network*: an object
        exposing ``sample_destinations(origins, rng)``."""
        raise NotImplementedError  # pragma: no cover - protocol

    def build_workload(
        self, spec: "ScenarioSpec", network: "NetworkPlugin"
    ) -> Any:
        """The arrival process bundled with the destinations: an object
        whose ``generate(horizon, gen)`` returns a
        :class:`~repro.traffic.workload.TrafficSample`.

        Default: every source node births an independent
        Poisson(``resolved_lam``) stream (the paper's §1.1 model) with
        destinations from :meth:`destination_law` — bit-identical to
        the historical per-network workload classes.  Plugins that
        modulate the *arrivals* (bursty) override this.
        """
        from repro.traffic.workload import NodePoissonWorkload

        return NodePoissonWorkload(
            network.num_sources(spec),
            spec.resolved_lam,
            self.destination_law(spec, network),
        )

    # -- exact theory ---------------------------------------------------------

    def mask_pmf(self, spec: "ScenarioSpec") -> Optional["np.ndarray"]:
        """The pmf of the XOR mask ``origin ^ destination`` over all
        ``2**d`` masks, when the law is translation invariant on a
        bit-addressed network; ``None`` where no closed form exists."""
        return None

    def flip_probabilities(self, spec: "ScenarioSpec") -> Optional["np.ndarray"]:
        """Per-dimension flip probabilities ``q_j`` (§2.2), or ``None``."""
        return None

    def mean_distance(self, spec: "ScenarioSpec") -> Optional[float]:
        """Expected Hamming distance to the destination, or ``None``.

        Default: ``sum_j q_j`` when :meth:`flip_probabilities` has a
        closed form.
        """
        q = self.flip_probabilities(spec)
        if q is None:
            return None
        return float(sum(q))

    # -- cosmetics -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TrafficPlugin {self.name!r}>"
