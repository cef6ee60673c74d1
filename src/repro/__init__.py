"""repro — reproduction of *The Efficiency of Greedy Routing in
Hypercubes and Butterflies* (Stamoulis & Tsitsiklis, SPAA 1991).

The package implements the paper end to end:

* the **topologies** (d-cube, butterfly) and the greedy dimension-order
  routing scheme;
* the **dynamic traffic model** (per-node Poisson sources, Bernoulli
  bit-flip destinations — eq. (1));
* exact **simulators** — a vectorised feed-forward engine exploiting
  the levelled structure, and a fixed-point engine over explicit arc
  paths for everything else; both also run Processor Sharing (the
  paper's proof device);
* the **equivalent queueing networks** Q and R with Markovian routing
  (Lemma 4), and their product-form PS counterparts;
* every **closed-form bound** (Props 2, 3, 12, 13, 14, 17, §3.4) plus
  the stability conditions (eq. (2), Props 6/16);
* **baselines**: the §2.3 pipelined batch scheme, deflection routing,
  and dimension-ordering ablations.

Quickstart::

    from repro import GreedyHypercubeScheme

    scheme = GreedyHypercubeScheme(d=6, lam=1.6, p=0.5)   # rho = 0.8
    print(scheme.delay_lower_bound(), scheme.delay_upper_bound())
    print(scheme.measure_delay(horizon=400.0, rng=0))
"""

from repro.core.bounds import (
    butterfly_delay_lower_bound,
    butterfly_delay_upper_bound,
    greedy_delay_lower_bound,
    greedy_delay_upper_bound,
    oblivious_delay_lower_bound,
    universal_delay_lower_bound,
)
from repro.core.greedy import GreedyButterflyScheme, GreedyHypercubeScheme
from repro.core.load import (
    butterfly_load_factor,
    butterfly_stable,
    hypercube_load_factor,
    hypercube_stable,
)
from repro.sim.feedforward import (
    simulate_butterfly_greedy,
    simulate_hypercube_greedy,
)
from repro.sim.slotted import SlottedGreedyHypercube
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.destinations import (
    BernoulliFlipLaw,
    TranslationInvariantLaw,
    UniformLaw,
)
from repro.traffic.workload import ButterflyWorkload, HypercubeWorkload

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "Hypercube",
    "Butterfly",
    "BernoulliFlipLaw",
    "UniformLaw",
    "TranslationInvariantLaw",
    "HypercubeWorkload",
    "ButterflyWorkload",
    "GreedyHypercubeScheme",
    "GreedyButterflyScheme",
    "SlottedGreedyHypercube",
    "simulate_hypercube_greedy",
    "simulate_butterfly_greedy",
    "hypercube_load_factor",
    "hypercube_stable",
    "butterfly_load_factor",
    "butterfly_stable",
    "universal_delay_lower_bound",
    "oblivious_delay_lower_bound",
    "greedy_delay_lower_bound",
    "greedy_delay_upper_bound",
    "butterfly_delay_lower_bound",
    "butterfly_delay_upper_bound",
]
