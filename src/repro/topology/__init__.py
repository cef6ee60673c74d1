"""Interconnection-network topologies (substrate).

The paper studies two networks:

* the **d-dimensional binary hypercube** (:class:`Hypercube`) — §1.1 of
  the paper and Fig. 1a;
* the **d-dimensional butterfly** (:class:`Butterfly`) — §4.1 and Fig. 3a,
  the "unfolded" hypercube.

Two further unit-capacity networks from the related-work directions
ship through the network-plugin API (:mod:`repro.networks`):

* the **bidirectional ring** (:class:`Ring`) — Papillon-style greedy;
* the **d-dimensional torus** (:class:`Torus`) — wrap-around grids.

All classes expose a dense integer *arc indexing* that the queueing
simulators build on, plus the canonical (dimension-order / greedy)
path machinery used by the greedy routing scheme.

Note on conventions: the paper numbers dimensions ``1..d`` and butterfly
levels ``1..d+1``; this library uses 0-based indices throughout
(``dim`` in ``range(d)``, levels in ``range(d+1)``), so the paper's
``e_j`` is our ``1 << (j-1)``.
"""

from repro.topology.base import Arc, Topology
from repro.topology.butterfly import Butterfly, ButterflyArc
from repro.topology.hypercube import Hypercube, HypercubeArc
from repro.topology.ring import Ring
from repro.topology.torus import Torus
from repro.topology.paths import (
    all_shortest_paths,
    dims_to_cross,
    is_shortest_path,
    path_arcs,
)

__all__ = [
    "Arc",
    "Topology",
    "Hypercube",
    "HypercubeArc",
    "Butterfly",
    "ButterflyArc",
    "Ring",
    "Torus",
    "dims_to_cross",
    "all_shortest_paths",
    "is_shortest_path",
    "path_arcs",
]
