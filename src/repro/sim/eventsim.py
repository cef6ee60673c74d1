"""Event-driven network simulator (FIFO and PS disciplines).

This is the classical engine: chronological event order, per-arc server
state, packets following explicit precomputed arc paths.  It is
deliberately independent of the levelled structure, so it can simulate

* the canonical greedy scheme (cross-validating the fast feed-forward
  engine sample-path-for-sample-path),
* **non-levelled** schemes such as per-packet random dimension order
  (the E13 ablation), which the feed-forward engine cannot express.

The state is flat preallocated NumPy/array storage — no per-event
allocation, no per-packet Python objects:

* paths live in a :class:`FlatPaths` packed layout
  (``flat[start[i]:start[i+1]]`` is packet *i*'s path);
* per-packet columns (hop index, delivery) replace the historical
  ``(pid, hop) -> t_in`` dict;
* the arc log fills preallocated arrays (exactly one row per hop), so
  ``record_arc_log=True`` costs bounded extra memory, not growing
  Python lists.

Tie-breaking matches :mod:`repro.sim.feedforward` exactly: at equal
times, service completions fire before queue-joins, and queue-joins
fire in packet-id order, so every arc serves its joins in (time,
packet id) order.  Consequently FIFO sample paths agree with the
feed-forward engine to floating-point round-off.

The two disciplines run different cores over the same flat state:

* **FIFO** fixes a departure the moment its packet joins:
  ``max(departure ahead, join) + service``.  Every join earlier than
  ``T + service`` (``T`` the earliest pending join) is known when the
  window ``[T, T + service)`` opens — a join is a birth or a departure,
  and a departure comes at least one service after its own join — so
  the core admits each window's joins as a handful of vectorised array
  operations instead of per-event heap traffic;
* **PS** keeps strict event order on a heap, packing each event into a
  single Python int — ``(time-bits, join?, id, version)`` bit fields,
  IEEE-754 order-preserving time image — because a PS departure moves
  with every later arrival at its arc.

:func:`simulate_paths_event_driven_batch` stacks R independent
replications into **one** calendar by offsetting replication *r*'s arc
ids by ``r * num_arcs``: the sub-systems are disjoint, their events
interleave safely, and each replication's deliveries are bit-identical
to its own sequential run — while the merged calendar is R times
denser, so each FIFO window's fixed cost is shared by R times the
joins.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.feedforward import ArcLog
from repro.sim.servers import PsServerBank
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
]

_EMPTY_F = np.empty(0)
_EMPTY_I = np.empty(0, np.int64)

# packed event keys (PS core): a single Python int per event,
#   ((time_key << 1 | is_join) << 72) | (id << 40..32 bits) | version
# so integer order == (time, completions-before-joins, id, version).
# ``id`` is the packet id for joins (joins tie-break in pid order) and
# the arc id for departure checks; ``version`` is the stale-check
# counter.
_JOIN_BIT = 1 << 72
_ID_MASK = (1 << 40) - 1
_VER_MASK = (1 << 32) - 1

_PACK_D = struct.Struct(">d").pack


def _time_key(t: float) -> int:
    """Order-preserving uint64 image of a finite float.

    Non-negative floats map to ``bits | 2^63`` (IEEE-754 bit patterns
    are already ordered there); negatives flip to ``2^64 - 1 - bits``
    so more-negative sorts smaller.
    """
    b = int.from_bytes(_PACK_D(t), "big")
    if b < 0x8000000000000000:
        return b | 0x8000000000000000
    return 0xFFFFFFFFFFFFFFFF - b


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


class _LogArrays:
    """Preallocated arc-log columns: exactly one row per hop."""

    __slots__ = ("pid", "arc", "t_in", "t_out", "fill")

    def __init__(self, total_hops: int) -> None:
        self.pid = np.empty(total_hops, np.int64)
        self.arc = np.empty(total_hops, np.int64)
        self.t_in = np.empty(total_hops)
        self.t_out = np.empty(total_hops)
        self.fill = 0

    def freeze(self) -> ArcLog:
        return ArcLog(self.pid, self.arc, self.t_in, self.t_out)


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

    FIFO runs one service window at a time and PS a strict-order heap
    calendar (see the module docstring).
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    if not service > 0:
        raise ConfigurationError(f"service must be > 0, got {service}")
    births = np.asarray(birth_times, dtype=float)
    n = births.shape[0]
    if len(paths) != n:
        raise ConfigurationError("paths and birth_times must be parallel")
    fp = flatten_paths(paths)
    flat, start = fp.flat, fp.start
    total = int(flat.shape[0])
    if total:
        lo = int(flat.min())
        hi = int(flat.max())
        if lo < 0 or hi >= num_arcs:
            bad = lo if lo < 0 else hi
            raise SimulationError(f"arc id {bad} out of range")
    hops = np.diff(start)
    delivery = np.empty(n)
    trivial = hops == 0
    delivery[trivial] = births[trivial]
    log = _LogArrays(total) if record_arc_log else None
    if total:
        core = _ps_heap_core if discipline == "ps" else _fifo_core
        core(num_arcs, births, flat, start, hops, service, delivery, log)
        if log is not None and log.fill != total:  # pragma: no cover
            raise SimulationError("some packets did not complete their paths")
    return EventSimResult(
        delivery, hops, log.freeze() if log is not None else None
    )


def simulate_paths_event_driven_batch(
    num_arcs: int,
    birth_times: Sequence[np.ndarray],
    paths: Sequence[Union[FlatPaths, Sequence[Sequence[int]]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
) -> List[np.ndarray]:
    """Delivery epochs of R independent replications as ONE calendar.

    Replication *r*'s arc ids are offset by ``r * num_arcs``, making
    the R sub-systems disjoint: their events interleave safely in a
    single merged run whose calendar is R times denser (which is where
    the FIFO core's per-window cost amortises).  Entry *r* of the
    result is **bit-identical** to

    ``simulate_paths_event_driven(num_arcs, birth_times[r], paths[r], ...)``

    because every computed epoch is a per-arc chain of the same float
    operations — the merged calendar changes only the event interleave
    across (independent) replications, never the arithmetic within one.
    """
    reps = len(birth_times)
    if len(paths) != reps:
        raise ConfigurationError("paths and birth_times must be parallel")
    if reps == 0:
        return []
    births, stacked, bounds = stack_replications(num_arcs, birth_times, paths)
    result = simulate_paths_event_driven(
        num_arcs * reps,
        births,
        stacked,
        discipline=discipline,
        service=service,
    )
    return [
        result.delivery[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


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
# the FIFO core: one service window at a time
# ---------------------------------------------------------------------------


def _fifo_core(
    num_arcs: int,
    births: np.ndarray,
    path_flat: np.ndarray,
    path_start: np.ndarray,
    hops: np.ndarray,
    service: float,
    delivery: np.ndarray,
    log: Optional[_LogArrays],
) -> None:
    """Admit every join of each window ``[T, T + service)`` at once.

    ``T`` is the earliest pending join.  Each arc serves its joins in
    (time, pid) order and departs one at ``max(departure ahead, join) +
    service``.  Only an arc's first join in a window can find the
    departure ahead earlier than itself: a later join arrives before
    ``T + service``, and the departure ahead of it is at least that, so
    its departure is the one ahead plus ``service`` -- added one rank
    at a time, the same float additions as the recursion.  A departure
    is never before ``T + service``, so each packet joins at most once
    per window and every join of the window is known when it opens.
    """
    record = log is not None
    hop_index = np.zeros(births.shape[0], np.int64)
    last = np.full(num_arcs, -np.inf)  # departure of each arc's latest join
    bidx = np.flatnonzero(hops > 0)
    bp = bidx[np.argsort(births[bidx], kind="stable")]
    bt = births[bp]
    nb = bp.shape[0]
    ptr = 0
    pt = _EMPTY_F  # forwarded joins: times ...
    pp = _EMPTY_I  # ... and packets
    while ptr < nb or pt.shape[0]:
        tmin = bt[ptr] if ptr < nb else np.inf
        if pt.shape[0]:
            tmin = min(tmin, pt.min())
        wend = tmin + service
        if not wend > tmin:  # inf/NaN times, or t + service rounds to t
            raise SimulationError(f"service {service} vanishes at t={tmin}")
        j = ptr + int(np.searchsorted(bt[ptr:], wend, side="left"))
        due = pt < wend
        j_p = np.concatenate((bp[ptr:j], pp[due]))
        j_t = np.concatenate((bt[ptr:j], pt[due]))
        ptr = j
        keep = ~due
        pt = pt[keep]
        pp = pp[keep]
        hi = hop_index[j_p]
        j_a = path_flat[path_start[j_p] + hi]
        # service order: grouped by arc, (time, pid) within an arc
        o = np.lexsort((j_p, j_t, j_a))
        j_p = j_p[o]
        j_t = j_t[o]
        j_a = j_a[o]
        hi = hi[o] + 1
        nj = j_p.shape[0]
        first = np.empty(nj, bool)
        first[0] = True
        np.not_equal(j_a[1:], j_a[:-1], out=first[1:])
        follow = np.append(~first[1:], False)  # next join is the same arc's
        dep = np.empty(nj)
        dep[first] = np.maximum(last[j_a[first]], j_t[first]) + service
        pos = np.flatnonzero(first & follow)
        while pos.shape[0]:
            pos += 1
            dep[pos] = dep[pos - 1] + service
            pos = pos[follow[pos]]
        tail = ~follow
        last[j_a[tail]] = dep[tail]
        if record:
            fill = log.fill
            log.pid[fill : fill + nj] = j_p
            log.arc[fill : fill + nj] = j_a
            log.t_in[fill : fill + nj] = j_t
            log.t_out[fill : fill + nj] = dep
            log.fill = fill + nj
        hop_index[j_p] = hi
        fin = hi == hops[j_p]
        delivery[j_p[fin]] = dep[fin]
        fwd = ~fin
        pt = np.concatenate((pt, dep[fwd]))
        pp = np.concatenate((pp, j_p[fwd]))


# ---------------------------------------------------------------------------
# the PS core (packed int-key events, no per-event allocation)
# ---------------------------------------------------------------------------


def _ps_heap_core(
    num_arcs: int,
    births: np.ndarray,
    path_flat: np.ndarray,
    path_start: np.ndarray,
    hops: np.ndarray,
    service: float,
    delivery: np.ndarray,
    log: Optional[_LogArrays],
) -> None:
    """PS over flat state: versioned departure checks, packed keys.

    An arrival reschedules its arc's next departure, bumping the arc's
    version; a popped check whose version is stale is skipped.  Server
    arithmetic is :class:`repro.sim.servers.PsServerBank` — op-for-op
    the :class:`~repro.sim.servers.PSServer` update rules, so sample
    paths are bit-identical to the historical per-object engine.
    """
    n = births.shape[0]
    flat_l = path_flat.tolist()
    start_l = path_start.tolist()
    hops_l = hops.tolist()
    join_t = births.tolist()
    hop_i = [0] * n
    bank = PsServerBank(num_arcs, n)
    ver = [0] * num_arcs
    record = log is not None
    heap = [
        (_time_key(join_t[p]) << 73) | _JOIN_BIT | (p << 32)
        for p in range(n)
        if hops_l[p]
    ]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    tkey = _time_key
    fill = 0
    while heap:
        key = pop(heap)
        if key & _JOIN_BIT:
            p = (key >> 32) & _ID_MASK
            t = join_t[p]
            a = flat_l[start_l[p] + hop_i[p]]
            bank.arrive(a, t, p, service)
            v = ver[a] + 1
            ver[a] = v
            td = bank.next_departure(a)
            push(
                heap,
                (tkey(td) << 73) | (a << 32) | (v & _VER_MASK),
            )
        else:
            a = (key >> 32) & _ID_MASK
            if (key & _VER_MASK) != (ver[a] & _VER_MASK):
                continue  # stale: an arrival rescheduled this departure
            t, p = bank.pop(a)
            if record:
                log.pid[fill] = p
                log.arc[fill] = a
                log.t_in[fill] = join_t[p]
                log.t_out[fill] = t
                fill += 1
            hop_i[p] += 1
            if hop_i[p] == hops_l[p]:
                delivery[p] = t
            else:
                join_t[p] = t
                push(heap, (tkey(t) << 73) | _JOIN_BIT | (p << 32))
            v = ver[a] + 1
            ver[a] = v
            td = bank.next_departure(a)
            if td is not None:
                push(
                    heap,
                    (tkey(td) << 73) | (a << 32) | (v & _VER_MASK),
                )
    if record:
        log.fill = fill


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


def butterfly_packet_paths(
    bf: Butterfly, sample: TrafficSample
) -> List[List[int]]:
    """Arc paths for each packet of a butterfly traffic sample.

    Origins/destinations are row addresses; each packet follows the
    *unique* §4.1 path from ``[origin; 0]`` to ``[destination; d]`` —
    exactly one arc per level, vertical wherever the row addresses
    differ.  This is what lets the event calendar cross-validate
    :func:`repro.sim.feedforward.simulate_butterfly_greedy`: both
    engines share the tie-breaking rule (completions before joins,
    joins in packet-id order), so FIFO sample paths agree to
    floating-point round-off.
    """
    return [
        bf.path_arcs(int(sample.origins[i]), int(sample.destinations[i]))
        for i in range(sample.num_packets)
    ]
