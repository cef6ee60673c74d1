"""The n-node bidirectional ring (cycle) network.

The ring is the simplest unit-capacity interconnection network and the
setting of the greedy-routing line of work around *Papillon* (Abraham,
Malkhi, Manku): nodes are the integers ``0 .. n-1`` arranged in a
cycle, and every node owns one **clockwise** arc ``i -> (i+1) mod n``
and one **counter-clockwise** arc ``i -> (i-1) mod n``.

Greedy routing comes in two classical variants, both supported here:

* ``"clockwise"`` — packets only ever travel clockwise, crossing
  ``(z - x) mod n`` arcs (the unidirectional ring);
* ``"absolute"``  — packets take the direction of smaller absolute
  distance, crossing ``min(k, n-k)`` arcs for clockwise offset ``k``
  (ties at ``k = n/2`` broken clockwise, deterministically).

Arc id layout (direction-major)::

    clockwise arc of node i          -> id i
    counter-clockwise arc of node i  -> id n + i

so the two direction classes occupy the contiguous id slices
``[0, n)`` and ``[n, 2n)`` — the ring's two "levels" for the
:class:`~repro.topology.base.Topology` contract.  Unlike the levelled
hypercube/butterfly equivalents, a greedy ring path may wrap around
the id space, so the ring is simulated by the fixed-point engine
(:mod:`repro.sim.fixedpoint`), never the level-by-level feed-forward
engine.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.topology.base import Arc, Topology

__all__ = ["Ring", "CLOCKWISE", "COUNTER_CLOCKWISE", "RING_DIRECTIONS"]

#: direction codes (== the ring's two arc levels)
CLOCKWISE = 0
COUNTER_CLOCKWISE = 1

#: greedy-variant names accepted by the path helpers
RING_DIRECTIONS = ("absolute", "clockwise")


class Ring(Topology):
    """The directed n-cycle with direction-major dense arc ids.

    Parameters
    ----------
    n:
        Number of nodes; ``n >= 3`` so the two directions are distinct
        arcs, and kept modest (``n <= 2**24``) since the simulators
        materialise per-arc state.
    """

    MAX_NODES = 1 << 24

    def __init__(self, n: int) -> None:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise TopologyError(f"ring size must be an integer, got {n!r}")
        if not 3 <= n <= self.MAX_NODES:
            raise TopologyError(
                f"ring size must be in [3, {self.MAX_NODES}], got {n}"
            )
        self._n = int(n)

    # -- basic facts ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_arcs(self) -> int:
        """``2n`` directed arcs (one per node per direction)."""
        return 2 * self._n

    @property
    def num_levels(self) -> int:
        """Two direction classes: clockwise and counter-clockwise."""
        return 2

    @property
    def diameter(self) -> int:
        """``floor(n/2)`` under shortest-direction routing."""
        return self._n // 2

    # -- node helpers --------------------------------------------------------

    def validate_node(self, x: int) -> int:
        if not 0 <= x < self._n:
            raise TopologyError(f"node {x} out of range [0, {self._n})")
        return x

    def offset(self, x: int, z: int) -> int:
        """Clockwise offset ``(z - x) mod n`` from *x* to *z*."""
        self.validate_node(x)
        self.validate_node(z)
        return (z - x) % self._n

    def distance(self, x: int, z: int) -> int:
        """Absolute (shortest-direction) distance ``min(k, n-k)``."""
        k = self.offset(x, z)
        return min(k, self._n - k)

    # -- arc id layout -------------------------------------------------------

    def arc_index(self, tail: int, direction: int) -> int:
        """Dense id of the *tail* node's arc in *direction*."""
        self.validate_node(tail)
        if direction not in (CLOCKWISE, COUNTER_CLOCKWISE):
            raise TopologyError(
                f"direction must be 0 (clockwise) or 1 (counter-clockwise), "
                f"got {direction}"
            )
        return direction * self._n + tail

    def arc(self, index: int) -> Arc:
        self.validate_arc_index(index)
        direction, tail = divmod(index, self._n)
        step = 1 if direction == CLOCKWISE else -1
        return Arc(
            index=index,
            tail=tail,
            head=(tail + step) % self._n,
            level=direction,
        )

    def level_slice(self, level: int) -> slice:
        if level not in (CLOCKWISE, COUNTER_CLOCKWISE):
            raise TopologyError(f"level {level} out of range [0, 2)")
        return slice(level * self._n, (level + 1) * self._n)

    def arcs(self) -> Iterator[Arc]:
        for index in range(self.num_arcs):
            yield self.arc(index)

    # -- greedy paths --------------------------------------------------------

    def greedy_hops(self, x: int, z: int, variant: str = "absolute") -> int:
        """Number of arcs the greedy packet crosses from *x* to *z*."""
        k = self.offset(x, z)
        if variant == "clockwise":
            return k
        if variant == "absolute":
            # ties at k == n/2 go clockwise, so "clockwise wins at <= n/2"
            return k if 2 * k <= self._n else self._n - k
        raise ConfigurationError(
            f"unknown ring greedy variant {variant!r}; "
            f"one of {', '.join(RING_DIRECTIONS)}"
        )

    def greedy_path_arcs(
        self, x: int, z: int, variant: str = "absolute"
    ) -> List[int]:
        """Dense arc ids of the greedy path from *x* to *z*."""
        k = self.offset(x, z)
        if variant not in RING_DIRECTIONS:
            raise ConfigurationError(
                f"unknown ring greedy variant {variant!r}; "
                f"one of {', '.join(RING_DIRECTIONS)}"
            )
        clockwise = variant == "clockwise" or 2 * k <= self._n
        arcs: List[int] = []
        cur = x
        hops = k if clockwise else self._n - k
        for _ in range(hops):
            if clockwise:
                arcs.append(cur)
                cur = (cur + 1) % self._n
            else:
                arcs.append(self._n + cur)
                cur = (cur - 1) % self._n
        return arcs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ring(n={self._n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and other._n == self._n

    def __hash__(self) -> int:
        return hash(("Ring", self._n))
