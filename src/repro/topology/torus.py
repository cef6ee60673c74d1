"""The d-dimensional torus (wrap-around grid) with side ``m``.

Nodes are the ``m**d`` points of ``{0..m-1}**d``, encoded mixed-radix:
coordinate ``j`` of node ``v`` is ``(v // m**j) % m``.  Every node owns
``2d`` arcs — one per (dimension, direction) pair — connecting it to
its neighbour one step along that dimension, with wrap-around.  This
is the higher-dimensional grid of Dietzfelbinger & Woelfel's greedy
lower-bound line of work; the ring is the ``d = 1`` special case
(kept as its own class, :class:`~repro.topology.ring.Ring`, for its
direction variants).

Greedy routing is dimension-order, exactly as on the hypercube:
dimensions are corrected in increasing index order, and within a
dimension the packet takes the direction of smaller absolute offset
(ties at ``m/2`` broken in the + direction, deterministically).

Arc id layout ((dimension, direction)-major)::

    arc_index(v, dim, direction) = (2*dim + direction) * m**d + v

so each of the ``2d`` (dimension, direction) classes — the torus's
"levels" for the :class:`~repro.topology.base.Topology` contract —
occupies one contiguous id slice of length ``m**d``.  Like the ring
(and unlike the levelled hypercube equivalent), in-dimension movement
can revisit the same arc class many times, so the torus is simulated
by the fixed-point engine (:mod:`repro.sim.fixedpoint`), never the
level-by-level feed-forward engine.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Arc, Topology

__all__ = ["Torus", "PLUS", "MINUS"]

#: direction codes within a dimension
PLUS = 0
MINUS = 1


class Torus(Topology):
    """The directed (m, d)-torus with (dimension, direction)-major arc ids.

    Parameters
    ----------
    side:
        Points per dimension; ``side >= 3`` so the two directions are
        distinct arcs.
    d:
        Number of dimensions; the torus has ``side**d`` nodes and
        ``2 * d * side**d`` arcs.  ``side**d`` is capped at ``2**22``
        since the simulators materialise per-arc state.
    """

    MAX_NODES = 1 << 22

    def __init__(self, side: int, d: int) -> None:
        for label, value in (("side", side), ("d", d)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TopologyError(f"torus {label} must be an integer, got {value!r}")
        if side < 3:
            raise TopologyError(f"torus side must be >= 3, got {side}")
        if d < 1:
            raise TopologyError(f"torus dimension must be >= 1, got {d}")
        if side**d > self.MAX_NODES:
            raise TopologyError(
                f"torus {side}**{d} has more than {self.MAX_NODES} nodes"
            )
        self._m = int(side)
        self._d = int(d)
        self._n = self._m**self._d

    # -- basic facts ---------------------------------------------------------

    @property
    def side(self) -> int:
        """Points per dimension."""
        return self._m

    @property
    def d(self) -> int:
        """Number of dimensions."""
        return self._d

    @property
    def num_nodes(self) -> int:
        """``side**d`` nodes."""
        return self._n

    @property
    def num_arcs(self) -> int:
        """``2 * d * side**d`` directed arcs."""
        return 2 * self._d * self._n

    @property
    def num_levels(self) -> int:
        """One level per (dimension, direction) pair."""
        return 2 * self._d

    @property
    def diameter(self) -> int:
        """``d * floor(side/2)`` under per-dimension shortest routing."""
        return self._d * (self._m // 2)

    # -- node encoding -------------------------------------------------------

    def validate_node(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise TopologyError(f"node {v} out of range [0, {self._n})")
        return v

    def validate_dim(self, dim: int) -> int:
        if not 0 <= dim < self._d:
            raise TopologyError(f"dimension {dim} out of range [0, {self._d})")
        return dim

    def coords(self, v: int) -> Tuple[int, ...]:
        """Mixed-radix coordinates of node *v* (dimension 0 first)."""
        self.validate_node(v)
        out = []
        for _ in range(self._d):
            v, c = divmod(v, self._m)
            out.append(c)
        return tuple(out)

    def node(self, coords: Tuple[int, ...]) -> int:
        """Inverse of :meth:`coords`."""
        if len(coords) != self._d:
            raise TopologyError(
                f"expected {self._d} coordinates, got {len(coords)}"
            )
        v = 0
        for j in reversed(range(self._d)):
            c = coords[j]
            if not 0 <= c < self._m:
                raise TopologyError(f"coordinate {c} out of range [0, {self._m})")
            v = v * self._m + c
        return v

    def coord(self, v: int, dim: int) -> int:
        """Coordinate *dim* of node *v*."""
        self.validate_node(v)
        self.validate_dim(dim)
        return (v // self._m**dim) % self._m

    def step(self, v: int, dim: int, direction: int) -> int:
        """Neighbour of *v* one hop along *dim* in *direction* (with wrap)."""
        stride = self._m**self.validate_dim(dim)
        c = (v // stride) % self._m
        delta = 1 if direction == PLUS else -1
        return v + ((c + delta) % self._m - c) * stride

    # -- arc id layout -------------------------------------------------------

    def arc_index(self, tail: int, dim: int, direction: int) -> int:
        """Dense id of arc ``tail -> step(tail, dim, direction)``."""
        self.validate_node(tail)
        self.validate_dim(dim)
        if direction not in (PLUS, MINUS):
            raise TopologyError(
                f"direction must be 0 (+) or 1 (-), got {direction}"
            )
        return (2 * dim + direction) * self._n + tail

    def arc_components(self, index: int) -> Tuple[int, int, int]:
        """Invert :meth:`arc_index`: returns ``(tail, dim, direction)``."""
        self.validate_arc_index(index)
        level, tail = divmod(index, self._n)
        dim, direction = divmod(level, 2)
        return tail, dim, direction

    def arc(self, index: int) -> Arc:
        tail, dim, direction = self.arc_components(index)
        return Arc(
            index=index,
            tail=tail,
            head=self.step(tail, dim, direction),
            level=2 * dim + direction,
        )

    def level_slice(self, level: int) -> slice:
        if not 0 <= level < self.num_levels:
            raise TopologyError(
                f"level {level} out of range [0, {self.num_levels})"
            )
        return slice(level * self._n, (level + 1) * self._n)

    def arcs(self) -> Iterator[Arc]:
        for index in range(self.num_arcs):
            yield self.arc(index)

    # -- greedy paths (dimension order, shortest direction) -------------------

    def greedy_hops(self, x: int, z: int) -> int:
        """Total arcs crossed: sum over dimensions of ``min(k, m-k)``."""
        self.validate_node(x)
        self.validate_node(z)
        total = 0
        for dim in range(self._d):
            k = (self.coord(z, dim) - self.coord(x, dim)) % self._m
            total += min(k, self._m - k)
        return total

    def greedy_path_arcs(self, x: int, z: int) -> List[int]:
        """Dense arc ids of the greedy path from *x* to *z*.

        Dimensions in increasing order; within a dimension, the shorter
        direction (ties at ``m/2`` broken in the + direction).
        """
        self.validate_node(x)
        self.validate_node(z)
        arcs: List[int] = []
        cur = x
        for dim in range(self._d):
            k = (self.coord(z, dim) - self.coord(cur, dim)) % self._m
            plus = 2 * k <= self._m
            hops = k if plus else self._m - k
            direction = PLUS if plus else MINUS
            for _ in range(hops):
                arcs.append((2 * dim + direction) * self._n + cur)
                cur = self.step(cur, dim, direction)
        return arcs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus(side={self._m}, d={self._d})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Torus)
            and other._m == self._m
            and other._d == self._d
        )

    def __hash__(self) -> int:
        return hash(("Torus", self._m, self._d))
