"""The equivalent queueing networks Q (Fig. 1b) and R (Fig. 3b).

Under greedy routing the hypercube behaves exactly as a queueing
network **Q** of ``d 2^d`` deterministic unit-service FIFO servers (one
per arc) with:

* **Property A** — external Poisson arrivals at arc ``(x, x^e_i)`` of
  rate ``lam p (1-p)^i`` (0-based ``i``): the packets born at ``x``
  whose lowest flipped dimension is ``i``;
* **Property B** — levelled structure: level ``i`` = dimension ``i``;
* **Property C / Lemma 4** — Markovian routing: after crossing
  ``(x, x^e_i)`` a packet moves to ``(x^e_i, x^e_i^e_j)`` with
  probability ``p (1-p)^{j-i-1}`` for ``j > i`` and exits with
  probability ``(1-p)^{d-1-i}``.

The butterfly analogue **R** (§4.3) has every packet traversing one arc
per level, choosing vertical with probability ``p`` at each level.

Both specs plug into :func:`repro.sim.feedforward.simulate_markovian`.
:class:`ExplicitLevelledSpec` supports
arbitrary levelled networks given as tables — e.g. the three-server
network of Fig. 2 used by Lemma 9.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.sim.feedforward import EXIT, LevelledSpec
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = [
    "HypercubeQSpec",
    "ButterflyRSpec",
    "ExplicitLevelledSpec",
    "hypercube_external_from_sample",
    "butterfly_external_from_sample",
]


class HypercubeQSpec(LevelledSpec):
    """Network Q for the d-cube under the Bernoulli(p) law."""

    def __init__(self, cube: Hypercube, p: float) -> None:
        if not 0.0 < p <= 1.0:
            raise ConfigurationError(
                f"p must lie in (0, 1] for network Q, got {p}"
            )
        self.cube = cube
        self.p = float(p)
        self.num_arcs = cube.num_arcs
        self.num_levels = cube.d

    def arc_level(self, arc_id: int) -> int:
        return arc_id // self.cube.num_nodes

    def draw_decisions(
        self, arc_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        d, n = self.cube.d, self.cube.num_nodes
        dim, tail = divmod(arc_id, n)
        head = tail ^ (1 << dim)
        if self.p >= 1.0:
            # Every remaining dimension is crossed: next is dim + 1.
            nxt = np.full(count, dim + 1, dtype=np.int64)
        else:
            # Gap to the next crossed dimension ~ Geometric(p) on {1,2,...}:
            # P[gap = k] = p (1-p)^(k-1), matching Property C.
            nxt = dim + rng.geometric(self.p, size=count).astype(np.int64)
        out = np.where(nxt >= d, EXIT, nxt * n + head)
        return out.astype(np.int64)

    # -- analytical rates (Properties A and Prop 5) --------------------------

    def external_rates(self, lam: float) -> np.ndarray:
        """Property A: rate ``lam p (1-p)^dim`` at every arc of ``dim``."""
        d, n = self.cube.d, self.cube.num_nodes
        dims = np.arange(self.num_arcs) // n
        return lam * self.p * (1.0 - self.p) ** dims

    def total_rates(self, lam: float) -> np.ndarray:
        """Prop 5: the total arrival rate at *every* arc is ``lam p``."""
        return np.full(self.num_arcs, lam * self.p)

    def solve_total_rates(self, lam: float) -> np.ndarray:
        """Numerically solve the traffic equations level by level.

        Independent verification of Prop 5: the result must equal
        ``lam p`` at every arc (tested in the suite).
        """
        d, n = self.cube.d, self.cube.num_nodes
        p = self.p
        total = self.external_rates(lam).copy()
        for dim in range(d - 1):
            for tail in range(n):
                src = dim * n + tail
                head = tail ^ (1 << dim)
                rate = total[src]
                for j in range(dim + 1, d):
                    total[j * n + head] += rate * p * (1.0 - p) ** (j - dim - 1)
        return total

    def sample_external_arrivals(
        self, lam: float, horizon: float, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw external arrivals directly from Property A.

        Returns ``(times, arcs)`` sorted by time — an alternative to
        deriving them from a physical :class:`TrafficSample`.
        """
        gen = as_generator(rng)
        rates = self.external_rates(lam)
        total = float(rates.sum())
        count = gen.poisson(total * horizon)
        times = np.sort(gen.random(count) * horizon)
        arcs = gen.choice(self.num_arcs, size=count, p=rates / total)
        return times, arcs.astype(np.int64)


class ButterflyRSpec(LevelledSpec):
    """Network R for the d-dimensional butterfly under the row law."""

    def __init__(self, bf: Butterfly, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must lie in [0, 1], got {p}")
        self.bf = bf
        self.p = float(p)
        self.num_arcs = bf.num_arcs
        self.num_levels = bf.d

    def arc_level(self, arc_id: int) -> int:
        return arc_id // (2 * self.bf.rows)

    def draw_decisions(
        self, arc_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        d, n = self.bf.d, self.bf.rows
        row, level, kind = self.bf.arc_components(arc_id)
        if level == d - 1:
            return np.full(count, EXIT, dtype=np.int64)
        head_row = row ^ (1 << level) if kind else row
        vertical = rng.random(count) < self.p
        next_kind = vertical.astype(np.int64)
        return (level + 1) * 2 * n + 2 * head_row + next_kind

    # -- analytical rates (Prop 15) -------------------------------------------

    def external_rates(self, lam: float) -> np.ndarray:
        """External arrivals only at level 0: ``lam(1-p)`` straight /
        ``lam p`` vertical per arc."""
        rates = np.zeros(self.num_arcs)
        n = self.bf.rows
        for row in range(n):
            rates[2 * row] = lam * (1.0 - self.p)  # (row; 0; s)
            rates[2 * row + 1] = lam * self.p  # (row; 0; v)
        return rates

    def total_rates(self, lam: float) -> np.ndarray:
        """Prop 15: ``lam(1-p)`` at every straight arc, ``lam p`` at
        every vertical arc, at every level."""
        rates = np.empty(self.num_arcs)
        kinds = np.arange(self.num_arcs) % 2
        rates[kinds == 0] = lam * (1.0 - self.p)
        rates[kinds == 1] = lam * self.p
        return rates

    def solve_total_rates(self, lam: float) -> np.ndarray:
        """Traffic equations level by level (verifies Prop 15)."""
        d, n = self.bf.d, self.bf.rows
        p = self.p
        total = self.external_rates(lam).copy()
        for level in range(d - 1):
            for row in range(n):
                for kind in (0, 1):
                    src = level * 2 * n + 2 * row + kind
                    head_row = row ^ (1 << level) if kind else row
                    rate = total[src]
                    base = (level + 1) * 2 * n + 2 * head_row
                    total[base] += rate * (1.0 - p)
                    total[base + 1] += rate * p
        return total

    def sample_external_arrivals(
        self, lam: float, horizon: float, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw network-R external arrivals directly (level-0 arcs only).

        Returns ``(times, arcs)`` sorted by time; each level-0 input
        chooses vertical with probability ``p`` (the first routing bit),
        matching :func:`butterfly_external_from_sample` in law.
        """
        gen = as_generator(rng)
        n = self.bf.rows
        count = gen.poisson(lam * n * horizon)
        times = np.sort(gen.random(count) * horizon)
        rows = gen.integers(0, n, size=count, dtype=np.int64)
        kinds = (gen.random(count) < self.p).astype(np.int64)
        return times, 2 * rows + kinds


class ExplicitLevelledSpec(LevelledSpec):
    """A levelled network given by explicit tables.

    Parameters
    ----------
    levels:
        ``levels[arc]`` is the level of each arc.
    routing:
        ``routing[arc] = (targets, probs)``: next-arc candidates (use
        :data:`~repro.sim.feedforward.EXIT` for leaving the network)
        and their probabilities, summing to 1.  Arcs without an entry
        always exit.
    """

    def __init__(
        self,
        levels: Sequence[int],
        routing: Dict[int, Tuple[Sequence[int], Sequence[float]]],
    ) -> None:
        self._levels = np.asarray(levels, dtype=np.int64)
        if self._levels.ndim != 1 or self._levels.shape[0] == 0:
            raise ConfigurationError("levels must be a non-empty 1-D sequence")
        self.num_arcs = int(self._levels.shape[0])
        self.num_levels = int(self._levels.max()) + 1
        self._routing: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for arc, (targets, probs) in routing.items():
            t = np.asarray(targets, dtype=np.int64)
            q = np.asarray(probs, dtype=float)
            if t.shape != q.shape:
                raise ConfigurationError(f"arc {arc}: targets/probs must be parallel")
            if abs(float(q.sum()) - 1.0) > 1e-9 or np.any(q < 0):
                raise ConfigurationError(f"arc {arc}: probabilities must form a pmf")
            for tgt in t:
                if tgt != EXIT and (
                    not 0 <= tgt < self.num_arcs
                    or self._levels[tgt] <= self._levels[arc]
                ):
                    raise ConfigurationError(
                        f"arc {arc}: target {tgt} violates the levelled property"
                    )
            self._routing[int(arc)] = (t, q)

    def arc_level(self, arc_id: int) -> int:
        return int(self._levels[arc_id])

    def draw_decisions(
        self, arc_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        entry = self._routing.get(int(arc_id))
        if entry is None:
            return np.full(count, EXIT, dtype=np.int64)
        targets, probs = entry
        idx = rng.choice(targets.shape[0], size=count, p=probs)
        return targets[idx]


# ---------------------------------------------------------------------------
# deriving network-Q externals from physical traffic
# ---------------------------------------------------------------------------


def hypercube_external_from_sample(
    cube: Hypercube, sample: TrafficSample
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map physical packets to their network-Q entry arcs.

    A packet born at ``x`` with XOR mask ``v != 0`` enters Q at arc
    ``(x, lowest set dimension of v)``; zero-mask packets never enter.
    Returns ``(times, arcs, pids)`` of the entering packets, exactly
    coupling the physical and network-Q sample paths.
    """
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    diff = origins ^ dests
    m = diff != 0
    lowest = diff[m] & -diff[m]  # isolate lowest set bit
    first_dim = np.bitwise_count(lowest - 1)  # trailing zeros
    arcs = first_dim.astype(np.int64) * cube.num_nodes + origins[m]
    pids = np.flatnonzero(m).astype(np.int64)
    return sample.times[m], arcs, pids


def butterfly_external_from_sample(
    bf: Butterfly, sample: TrafficSample
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map physical butterfly packets to their network-R entry arcs.

    Every packet enters at level 0: straight if bit 0 needs no
    correction, vertical otherwise.
    """
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    kind = (origins ^ dests) & 1
    arcs = 2 * origins + kind
    pids = np.arange(origins.shape[0], dtype=np.int64)
    return sample.times.copy(), arcs, pids
