"""NetworkX adapters — independent validation of the topology substrate.

These converters rebuild the cube/butterfly as ``networkx.DiGraph``
objects so graph-theoretic invariants (degrees, diameter, path counts)
can be checked against a third-party implementation in the test suite,
and so downstream users can feed the topologies to standard graph
tooling.  networkx is a ``dev`` extra, not a runtime dependency, so
:mod:`repro.topology` does not import this module: import it directly.
"""

from __future__ import annotations

import networkx as nx

from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube

__all__ = ["hypercube_digraph", "butterfly_digraph"]


def hypercube_digraph(cube: Hypercube) -> "nx.DiGraph":
    """The d-cube as a directed graph; arcs carry ``index`` and ``dim``."""
    g = nx.DiGraph()
    g.add_nodes_from(range(cube.num_nodes))
    for arc in cube.arcs():
        g.add_edge(arc.tail, arc.head, index=arc.index, dim=arc.level)
    return g


def butterfly_digraph(bf: Butterfly) -> "nx.DiGraph":
    """The butterfly as a directed graph over dense node ids
    (``level * 2**d + row``); arcs carry ``index``, ``level``, ``kind``."""
    g = nx.DiGraph()
    g.add_nodes_from(range(bf.num_nodes))
    for arc_id in range(bf.num_arcs):
        row, level, kind = bf.arc_components(arc_id)
        arc = bf.arc(arc_id)
        g.add_edge(arc.tail, arc.head, index=arc_id, level=level, kind=kind)
    return g
