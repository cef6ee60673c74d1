"""Traffic generation substrate *and* the traffic plugin axis: who
sends, when, and to whom.

The substrate implements the paper's packet-generation model (§1.1):

* each node generates packets as an independent Poisson process with
  rate ``lam`` (:class:`PoissonProcess`, :func:`merged_poisson_arrivals`);
* each packet flips each origin-address bit independently with
  probability ``p`` to pick its destination — eq. (1) / Lemma 1
  (:class:`BernoulliFlipLaw`), with the uniform law as the ``p = 1/2``
  special case and arbitrary translation-invariant laws
  (:class:`TranslationInvariantLaw`) for the §2.2 generalisation;
* the §3.4 slotted variant generates Poisson-sized batches at slot
  boundaries (:class:`SlottedBatchArrivals`).

On top of the substrate sits the **fourth plugin axis** (after
schemes, networks and engines): every workload law a scenario can run
under is a :class:`~repro.traffic.api.TrafficPlugin` declaring its
identity (name + aliases), its typed traffic-scoped options, its
sampling hooks (``destination_law`` / ``build_workload``) and its
exact-theory closed forms (``mask_pmf`` / ``flip_probabilities`` /
``mean_distance``).  Built-ins:
``uniform`` (eq. (1)), the permutation family (``bitrev``,
``transpose``, ``bitcomp``), ``hotspot`` and ``bursty``; third-party
packages extend the vocabulary via the ``repro.traffic_plugins``
entry-point group.

Quickstart — a new traffic law in one class::

    from repro.traffic import TrafficPlugin, register_traffic

    @register_traffic
    class MyLaw(TrafficPlugin):
        name = "mylaw"
        aliases = ("ml",)
        summary = "one line for `repro traffics`"

        def destination_law(self, spec, network):
            ...  # anything with sample_destinations(origins, rng)
"""

from repro.traffic.api import TrafficPlugin
from repro.traffic.arrivals import (
    PoissonProcess,
    SlottedBatchArrivals,
    merged_poisson_arrivals,
)
from repro.traffic.destinations import (
    BernoulliFlipLaw,
    DestinationLaw,
    FixedMaskLaw,
    HotSpotTraffic,
    PermutationTraffic,
    TranslationInvariantLaw,
    UniformExcludingOriginLaw,
    UniformLaw,
    UniformNodeLaw,
    bit_reversal_permutation,
    transpose_permutation,
)
from repro.traffic.registry import (
    all_traffic_names,
    available_traffics,
    canonical_traffic_name,
    get_traffic,
    iter_traffics,
    register_traffic,
    unregister_traffic,
)
from repro.traffic.workload import (
    ButterflyWorkload,
    HypercubeWorkload,
    NodePoissonWorkload,
    SlottedHypercubeWorkload,
    TrafficSample,
)

__all__ = [
    "PoissonProcess",
    "SlottedBatchArrivals",
    "merged_poisson_arrivals",
    "DestinationLaw",
    "BernoulliFlipLaw",
    "UniformLaw",
    "UniformExcludingOriginLaw",
    "TranslationInvariantLaw",
    "FixedMaskLaw",
    "PermutationTraffic",
    "HotSpotTraffic",
    "UniformNodeLaw",
    "bit_reversal_permutation",
    "transpose_permutation",
    "TrafficSample",
    "HypercubeWorkload",
    "ButterflyWorkload",
    "NodePoissonWorkload",
    "SlottedHypercubeWorkload",
    "TrafficPlugin",
    "all_traffic_names",
    "available_traffics",
    "canonical_traffic_name",
    "get_traffic",
    "iter_traffics",
    "register_traffic",
    "unregister_traffic",
]
