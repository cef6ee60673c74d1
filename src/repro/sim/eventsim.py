"""Explicit arc paths: their packed layout, their construction for the
built-in networks, and the event engine's entry points.

Packets follow precomputed arc paths, independent of any levelled
structure, so these entry points can simulate

* the canonical greedy scheme (cross-validating the fast feed-forward
  engine sample-path-for-sample-path),
* **non-levelled** schemes such as per-packet random dimension order
  (the E13 ablation), which the feed-forward engine cannot express.

The state is flat NumPy storage — no per-packet Python objects:

* paths live in a :class:`FlatPaths` packed layout
  (``flat[start[i]:start[i+1]]`` is packet *i*'s path);
* the arc log is built from the solver's per-row departures (exactly
  one row per hop), so ``record_arc_log=True`` costs bounded extra
  memory, not growing Python lists.

Both disciplines run the fixed-point engine's solvers, through its one
dispatch (:func:`repro.sim.fixedpoint._solve`):

* **FIFO** makes the time-ordered pass: every join earlier than
  ``T + service`` (``T`` the earliest pending join) is known when the
  window ``[T, T + service)`` opens — a join is a birth or a departure,
  and a departure comes at least one service after its own join — so
  each window is served once by the feed-forward engine's Lindley
  closed form;
* **PS** sweeps to a fixed point on the feed-forward engine's PS
  kernel, because a PS departure moves with every later arrival at its
  arc.

So the event and fixed-point engines agree bit for bit under both
disciplines, and with the feed-forward engine wherever it runs.
Tie-breaking is that kernel's: every arc admits its joins in (time,
hop row) order — (time, packet id) order, rows being packet-major —
and a join at the epoch of a departure after that departure (up to one
ulp under PS on a path that takes one arc twice in a row; see
:mod:`repro.sim.fixedpoint`).

:func:`simulate_paths_event_driven_batch` stacks R independent
replications into **one** solve by offsetting replication *r*'s arc
ids by ``r * num_arcs`` (:func:`stack_replications`): the sub-systems
are disjoint, so each replication's deliveries are bit-identical to
its own sequential run, while each FIFO window's fixed cost is shared
by R times the joins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.feedforward import ArcLog, ButterflyLevels
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = [
    "EventSimResult",
    "FlatPaths",
    "flatten_paths",
    "simulate_paths_event_driven",
    "simulate_paths_event_driven_batch",
    "stack_replications",
    "hypercube_packet_paths",
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


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of an event-driven run."""

    delivery: np.ndarray
    hops: np.ndarray
    arc_log: Optional[ArcLog]

    def delay_record_from(self, sample: TrafficSample):
        from repro.sim.measurement import DelayRecord

        return DelayRecord(sample.times, self.delivery, sample.horizon)


def simulate_paths_event_driven(
    num_arcs: int,
    birth_times: np.ndarray,
    paths: Union[FlatPaths, Sequence[Sequence[int]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
    record_arc_log: bool = False,
) -> EventSimResult:
    """Simulate packets following explicit arc paths.

    Parameters
    ----------
    num_arcs:
        Total number of servers (arc ids must lie in ``range(num_arcs)``).
    birth_times:
        Per-packet injection epochs (any order).
    paths:
        Per-packet sequences of arc ids (or a :class:`FlatPaths`); a
        packet with an empty path is delivered at birth.
    discipline:
        ``"fifo"`` or ``"ps"`` applied at every arc.
    service:
        Deterministic service requirement per hop (``> 0``).
    record_arc_log:
        Also return one :class:`~repro.sim.feedforward.ArcLog` row per
        hop (row order is unspecified).

    Solved by the fixed-point engine's solvers (see the module
    docstring).
    """
    from repro.sim import fixedpoint  # imports this module at load

    fp, delivery, dep, _, _ = fixedpoint._solve(
        num_arcs, birth_times, paths, discipline, service
    )
    hops = fp.hops()
    arc_log = None
    if record_arc_log:
        # rows are packet-major: a hop joins when the one before departs
        routed = hops > 0
        t_in = np.empty(dep.shape[0])
        t_in[1:] = dep[:-1]
        t_in[fp.start[:-1][routed]] = np.asarray(birth_times, float)[routed]
        pid = np.repeat(np.arange(hops.shape[0], dtype=np.int64), hops)
        arc_log = ArcLog(pid, fp.flat.copy(), t_in, dep)
    return EventSimResult(delivery, hops, arc_log)


def simulate_paths_event_driven_batch(
    num_arcs: int,
    birth_times: Sequence[np.ndarray],
    paths: Sequence[Union[FlatPaths, Sequence[Sequence[int]]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
) -> List[np.ndarray]:
    """Delivery epochs of R independent replications as one solve.

    The fixed-point engine's batch
    (:func:`repro.sim.fixedpoint.simulate_paths_fixed_point_batch`):
    replication *r*'s arc ids are offset by ``r * num_arcs``
    (:func:`stack_replications`), making the R sub-systems disjoint, so
    one FIFO pass serves them all (R times the rows share each window's
    fixed cost) and PS sweeps each replication's block until that block
    alone stops moving.  Entry *r* of the result is **bit-identical**
    to

    ``simulate_paths_event_driven(num_arcs, birth_times[r], paths[r], ...)``

    because no replication's rows ever share an arc with another's.
    """
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


def hypercube_packet_paths(
    cube: Hypercube,
    sample: TrafficSample,
    orders: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """Arc paths for each packet of a hypercube traffic sample.

    ``orders`` optionally supplies a per-packet dimension crossing
    order (each a permutation of that packet's differing dimensions);
    default is the canonical increasing order, built vectorised.
    """
    n_nodes = cube.num_nodes
    if orders is None:
        dims_flat, start = hypercube_dims_flat(
            cube.d, sample.origins, sample.destinations
        )
        arcs = hypercube_arcs_flat(
            n_nodes, sample.origins, dims_flat, start
        ).tolist()
        st = start.tolist()
        return [
            arcs[st[i] : st[i + 1]] for i in range(sample.num_packets)
        ]
    paths: List[List[int]] = []
    for i in range(sample.num_packets):
        x = int(sample.origins[i])
        z = int(sample.destinations[i])
        dims = cube.dims_to_cross(x, z)
        order = list(orders[i])
        if sorted(order) != dims:
            raise ConfigurationError(
                f"packet {i}: order {order} is not a permutation of {dims}"
            )
        arcs = []
        cur = x
        for j in order:
            arcs.append(j * n_nodes + cur)
            cur ^= 1 << j
        paths.append(arcs)
    return paths


def butterfly_packet_paths(bf: Butterfly, sample: TrafficSample) -> FlatPaths:
    """Arc paths for each packet of a butterfly traffic sample.

    Origins/destinations are row addresses; each packet follows the
    *unique* §4.1 path from ``[origin; 0]`` to ``[destination; d]`` —
    exactly one arc per level, vertical wherever the row addresses
    differ — which is the level map's arc at each level
    (:class:`~repro.sim.feedforward.ButterflyLevels`), so the paths pack
    as one (packets × d) array.  This is what lets the path engines
    cross-validate :func:`repro.sim.feedforward.simulate_butterfly_greedy`.
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
