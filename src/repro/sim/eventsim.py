"""Explicit arc paths: their packed layout and their construction for
the built-in networks.

The fixed-point path engine (:mod:`repro.sim.fixedpoint`) simulates
packets that follow precomputed arc paths, independent of any levelled
structure: greedy routing on networks with no level order (ring,
torus, third-party networks), and schemes such as per-packet random
dimension order (the E13 ablation) and two-phase routing, which the
feed-forward engine cannot express.

Paths live in a :class:`FlatPaths` packed layout
(``flat[start[i]:start[i+1]]`` is packet *i*'s path), built with array
operations rather than per-packet Python loops: every hypercube path
by :func:`hypercube_paths`, butterfly paths by
:func:`butterfly_packet_paths`, and ring and torus paths by
:func:`torus_packet_paths`.  :func:`stack_replications` offsets
replication *r*'s arc ids by ``r * num_arcs``, so R replications solve
as one system of disjoint sub-networks.

The module also keeps the older names of the two fixed-point entry
points, for callers outside the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.feedforward import ButterflyLevels
from repro.topology.butterfly import Butterfly
from repro.traffic.workload import TrafficSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fixedpoint import FixedPointResult

__all__ = [
    "FlatPaths",
    "flatten_paths",
    "simulate_paths_event_driven",
    "simulate_paths_event_driven_batch",
    "stack_replications",
    "hypercube_paths",
    "hypercube_dims_flat",
    "hypercube_arcs_flat",
    "butterfly_packet_paths",
    "torus_packet_paths",
]


@dataclass(frozen=True)
class FlatPaths:
    """Packed per-packet arc paths.

    ``flat[start[i]:start[i+1]]`` is packet *i*'s arc path; both arrays
    are int64 and ``start`` has one trailing entry (``start[-1] ==
    len(flat)``).  Anywhere a ``Sequence[Sequence[int]]`` of paths is
    accepted, a ``FlatPaths`` is too — and skips the flattening pass.
    """

    flat: np.ndarray
    start: np.ndarray

    @property
    def num_packets(self) -> int:
        return self.start.shape[0] - 1

    def hops(self) -> np.ndarray:
        return np.diff(self.start)

    def __len__(self) -> int:
        return self.num_packets

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(self.num_packets)[i]  # negatives count from the end
        return self.flat[self.start[i] : self.start[i + 1]]


def flatten_paths(
    paths: Union[FlatPaths, Sequence[Sequence[int]]]
) -> FlatPaths:
    """Pack a sequence of per-packet arc paths (no-op on FlatPaths)."""
    if isinstance(paths, FlatPaths):
        return paths
    counts = np.fromiter(
        (len(p) for p in paths), np.int64, count=len(paths)
    )
    start = np.zeros(counts.shape[0] + 1, np.int64)
    np.cumsum(counts, out=start[1:])
    flat = np.fromiter(
        itertools.chain.from_iterable(paths), np.int64, count=int(start[-1])
    )
    return FlatPaths(flat, start)


def simulate_paths_event_driven(
    num_arcs: int,
    birth_times: np.ndarray,
    paths: Union[FlatPaths, Sequence[Sequence[int]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
    record_arc_log: bool = False,
) -> "FixedPointResult":
    """The older name of
    :func:`repro.sim.fixedpoint.simulate_paths_fixed_point`, which it
    calls with the same arguments and whose result it returns."""
    # imported here: repro.sim.fixedpoint imports this module at load
    from repro.sim.fixedpoint import simulate_paths_fixed_point

    return simulate_paths_fixed_point(
        num_arcs,
        birth_times,
        paths,
        discipline=discipline,
        service=service,
        record_arc_log=record_arc_log,
    )


def simulate_paths_event_driven_batch(
    num_arcs: int,
    birth_times: Sequence[np.ndarray],
    paths: Sequence[Union[FlatPaths, Sequence[Sequence[int]]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
) -> List[np.ndarray]:
    """The older name of
    :func:`repro.sim.fixedpoint.simulate_paths_fixed_point_batch`, which
    it calls with the same arguments and whose result it returns."""
    # imported here: repro.sim.fixedpoint imports this module at load
    from repro.sim.fixedpoint import simulate_paths_fixed_point_batch

    return simulate_paths_fixed_point_batch(
        num_arcs, birth_times, paths, discipline=discipline, service=service
    )


def stack_replications(
    num_arcs: int,
    birth_times: Sequence[np.ndarray],
    paths: Sequence[Union[FlatPaths, Sequence[Sequence[int]]]],
) -> Tuple[np.ndarray, FlatPaths, np.ndarray]:
    """R parallel replications as one system of R disjoint sub-networks.

    Replication *r*'s arc ids are offset by ``r * num_arcs``.  Returns
    the concatenated births, the stacked paths and the packet bounds:
    replication *r* owns packets ``bounds[r]:bounds[r + 1]``, and so
    hop rows ``start[bounds[r]]:start[bounds[r + 1]]``.  Arc ids are
    checked per replication, before the offset, where an id past
    ``num_arcs`` would otherwise alias a sibling's arc.
    """
    flats = [flatten_paths(p) for p in paths]
    births = [np.asarray(b, dtype=float) for b in birth_times]
    bounds = np.zeros(len(flats) + 1, np.int64)
    for r, (b, f) in enumerate(zip(births, flats)):
        if f.num_packets != b.shape[0]:
            raise ConfigurationError("paths and birth_times must be parallel")
        if f.flat.shape[0]:
            lo = int(f.flat.min())
            hi = int(f.flat.max())
            if lo < 0 or hi >= num_arcs:
                bad = lo if lo < 0 else hi
                raise SimulationError(f"arc id {bad} out of range")
        bounds[r + 1] = bounds[r] + b.shape[0]
    flat = np.concatenate([f.flat + r * num_arcs for r, f in enumerate(flats)])
    starts = []
    hop_off = 0
    for f in flats:
        starts.append(f.start[:-1] + hop_off)
        hop_off += int(f.start[-1])
    starts.append(np.array([hop_off], np.int64))
    return np.concatenate(births), FlatPaths(flat, np.concatenate(starts)), bounds


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------


def hypercube_dims_flat(
    d: int, origins: np.ndarray, destinations: np.ndarray
) -> tuple:
    """Per-packet differing dimensions, increasing order, packed flat.

    Returns ``(dims_flat, start)``: packet *i* must cross dimensions
    ``dims_flat[start[i]:start[i+1]]`` (ascending — the canonical
    greedy order).  One bit-matrix ``nonzero`` instead of a per-packet
    Python loop.
    """
    o = np.asarray(origins, np.int64)
    z = np.asarray(destinations, np.int64)
    diff = o ^ z
    bits = (diff[:, None] >> np.arange(d, dtype=np.int64)) & 1
    dims = np.nonzero(bits)[1].astype(np.int64, copy=False)
    start = np.zeros(o.shape[0] + 1, np.int64)
    np.cumsum(bits.sum(axis=1), out=start[1:])
    return dims, start


def hypercube_arcs_flat(
    num_nodes: int,
    origins: np.ndarray,
    dims_flat: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Arc ids along the paths crossing ``dims_flat`` in order.

    The node after each crossing is the segment origin XOR the
    crossings so far — a segmented exclusive XOR prefix, computed with
    one global ``bitwise_xor.accumulate`` re-based per segment.  Works
    for any per-packet dimension order (canonical, shuffled, two-phase
    concatenations), as long as ``start`` marks segment boundaries and
    ``origins`` holds each segment's starting node.
    """
    if dims_flat.shape[0] == 0:
        return np.zeros(0, np.int64)
    counts = np.diff(start)
    tot = np.bitwise_xor.accumulate(np.int64(1) << dims_flat)
    pre = np.empty_like(tot)
    pre[0] = 0
    pre[1:] = tot[:-1]
    idx = np.minimum(start[:-1], dims_flat.shape[0] - 1)
    excl = pre ^ np.repeat(pre[idx], counts)
    cur = np.repeat(np.asarray(origins, np.int64), counts) ^ excl
    return dims_flat * num_nodes + cur


def hypercube_paths(d: int, *stops: np.ndarray) -> FlatPaths:
    """Greedy arc paths on the d-cube through per-packet stops, packed
    flat.

    Packet *i* goes ``stops[0][i] -> stops[1][i] -> ... -> stops[-1][i]``,
    each leg on its canonical path (differing dimensions in increasing
    order): two stops give the greedy paths, three the two-phase ones
    through an intermediate node.  Row ``i * legs + k`` of one
    interleaved leg table is packet *i*'s leg *k*, so the legs of a
    packet lie side by side in the flat arrays, and every ``legs``-th
    leg boundary is a packet boundary.
    """
    ends = [np.asarray(s, np.int64) for s in stops]
    legs = len(ends) - 1
    leg_from = np.stack(ends[:-1], 1).reshape(-1)
    leg_to = np.stack(ends[1:], 1).reshape(-1)
    dims_flat, leg_start = hypercube_dims_flat(d, leg_from, leg_to)
    arcs = hypercube_arcs_flat(1 << d, leg_from, dims_flat, leg_start)
    return FlatPaths(arcs, leg_start[::legs])


def butterfly_packet_paths(bf: Butterfly, sample: TrafficSample) -> FlatPaths:
    """Arc paths for each packet of a butterfly traffic sample.

    Origins/destinations are row addresses; each packet follows the
    *unique* §4.1 path from ``[origin; 0]`` to ``[destination; d]`` —
    exactly one arc per level, vertical wherever the row addresses
    differ — which is the level map's arc at each level
    (:class:`~repro.sim.feedforward.ButterflyLevels`), so the paths pack
    as one (packets × d) array.  This is what lets the fixed-point
    engine cross-validate :func:`repro.sim.feedforward.simulate_butterfly_greedy`.
    """
    levels = ButterflyLevels(bf)
    origins = np.asarray(sample.origins, np.int64)
    diff = origins ^ np.asarray(sample.destinations, np.int64)
    arcs = np.stack([levels.arcs(lvl, origins, diff) for lvl in range(bf.d)], 1)
    start = bf.d * np.arange(sample.num_packets + 1, dtype=np.int64)
    return FlatPaths(arcs.reshape(-1), start)


def torus_packet_paths(
    side: int, d: int, sample: TrafficSample, clockwise: bool = False
) -> FlatPaths:
    """Greedy arc paths on the (side, d)-torus, packed flat.

    Dimensions are corrected in increasing order, each in its shorter
    direction (ties at ``side/2`` go +), or always + with
    ``clockwise``.  Arc ids follow :class:`~repro.topology.torus.Torus`,
    ``(2*dim + direction) * side**d + tail``; at ``d = 1`` that is
    :class:`~repro.topology.ring.Ring`'s ``direction * n + tail``, so
    ring paths are ``torus_packet_paths(n, 1, ...)``.  Both topologies'
    ``greedy_path_arcs`` build the same paths one packet at a time.

    Each (packet, dimension) pair is one run of hops; hop ``s`` of the
    run leaves the node whose coordinate ``dim`` is ``(c + step*s) mod
    side``, with the coordinates below ``dim`` already the
    destination's and those above still the origin's.
    """
    x = np.asarray(sample.origins, np.int64)[:, None]
    z = np.asarray(sample.destinations, np.int64)[:, None]
    stride = side ** np.arange(d, dtype=np.int64)
    c = x // stride % side  # (packet, dim) origin coordinates
    k = (z // stride % side - c) % side  # ... and + offsets
    plus = np.full(k.shape, True) if clockwise else 2 * k <= side
    run_hops = np.where(plus, k, side - k)
    start = np.zeros(x.shape[0] + 1, np.int64)
    np.cumsum(run_hops.sum(axis=1), out=start[1:])
    hops = run_hops.ravel()
    # per run: its arc class offset plus its tails with coordinate
    # ``dim`` zeroed (the destination's below ``dim``, the origin's above)
    base = (2 * np.arange(d) + ~plus) * side**d + z % stride + x - x % (stride * side)
    run = np.repeat(np.arange(hops.shape[0]), hops)
    s = np.arange(run.shape[0]) - (np.cumsum(hops) - hops)[run]
    coord = (c.ravel()[run] + np.where(plus, 1, -1).ravel()[run] * s) % side
    flat = base.ravel()[run] + coord * np.broadcast_to(stride, k.shape).ravel()[run]
    return FlatPaths(flat, start)
