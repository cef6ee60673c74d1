"""Vectorised simulation of levelled networks (the HPC fast path).

The equivalent networks Q (hypercube, §3.1) and R (butterfly, §4.3) are
*levelled*: a packet leaving a level-``l`` server only ever joins a
server at a level ``> l`` (Property B).  Consequently the whole sample
path can be computed **level by level with no event calendar**: once
levels ``0..l-1`` are solved, the complete arrival stream of every
level-``l`` server is known, and each server is solved in one shot —
FIFO by the closed-form Lindley recursion
(:func:`repro.sim.lindley.fifo_departure_times`), PS by the exact
fair-share construction (:func:`repro.sim.servers.ps_departure_times`).

Two front ends:

* :func:`simulate_hypercube_greedy` / :func:`simulate_butterfly_greedy`
  — *packet mode*: route actual packets of a
  :class:`~repro.traffic.workload.TrafficSample` along their canonical
  paths (the physical system of the paper);
* :func:`simulate_markovian` — *network mode*: simulate a levelled
  network spec with Markovian routing decisions (networks Q/R and the
  Fig. 2 example), with optional **decision coupling** for the
  Lemma 9/10 sample-path comparisons.

FIFO ties are broken by packet id (birth order) — the deterministic
stand-in for the paper's "first arrived at the node" rule — and the
event-driven engine uses the same rule, so both engines produce the
same sample path (cross-validated in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.rng import SeedLike, as_generator
from repro.sim.measurement import DelayRecord
from repro.sim.servers import ps_departure_times
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = [
    "ArcLog",
    "FeedForwardResult",
    "MarkovianResult",
    "serve_level",
    "simulate_hypercube_greedy",
    "simulate_butterfly_greedy",
    "simulate_hypercube_greedy_batch",
    "simulate_butterfly_greedy_batch",
    "simulate_hypercube_greedy_chunked",
    "simulate_butterfly_greedy_chunked",
    "simulate_markovian",
    "LevelledSpec",
]

#: routing decision code for "leave the network"
EXIT = -1


@dataclass(frozen=True)
class ArcLog:
    """Flat per-hop trace: packet ``pid`` held arc ``arc`` during
    ``[t_in, t_out)`` of queueing+service."""

    pid: np.ndarray
    arc: np.ndarray
    t_in: np.ndarray
    t_out: np.ndarray

    @property
    def num_hops(self) -> int:
        return int(self.pid.shape[0])

    def for_arc(self, arc_id: int) -> "ArcLog":
        """Sub-log of a single arc, in service (departure) order (a
        packet crosses an arc at most once, so its pids are distinct)."""
        m = self.arc == arc_id
        order = _arc_time_pid_order(self.arc[m], self.t_in[m], self.pid[m])
        return ArcLog(
            self.pid[m][order],
            self.arc[m][order],
            self.t_in[m][order],
            self.t_out[m][order],
        )


@dataclass(frozen=True)
class FeedForwardResult:
    """Outcome of a packet-mode run."""

    delivery: np.ndarray
    hops: np.ndarray
    arc_log: Optional[ArcLog]
    sample: TrafficSample

    def delay_record(self) -> DelayRecord:
        return DelayRecord(self.sample.times, self.delivery, self.sample.horizon)

    def delays(self) -> np.ndarray:
        return self.delivery - self.sample.times


@dataclass(frozen=True)
class MarkovianResult:
    """Outcome of a network-mode (Markovian routing) run."""

    #: exit time of each external customer (indexed like the inputs)
    exit_times: np.ndarray
    #: number of servers visited per customer
    hops: np.ndarray
    arc_log: Optional[ArcLog]
    #: per-arc routing decision sequences actually used (for coupling)
    decisions: Optional[Dict[int, np.ndarray]]


def _segmented_running_max(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-segment prefix maximum of *values* (Hillis–Steele doubling).

    ``pos`` gives each element's 0-based index within its (contiguous)
    segment.  Equivalent to ``np.maximum.accumulate`` applied segment
    by segment — bit-identical, since ``max`` selects one of its
    operands — but with O(log max-segment-length) vectorised rounds
    instead of a Python loop over segments.
    """
    out = values.copy()
    max_pos = int(pos.max()) if pos.shape[0] else 0
    shift = 1
    while shift <= max_pos:
        # element i's in-segment predecessor at distance `shift` is
        # i - shift iff pos[i] >= shift (segments are contiguous);
        # np.where materialises last round's values before the write
        candidate = np.where(pos[shift:] >= shift, out[:-shift], -np.inf)
        np.maximum(out[shift:], candidate, out=out[shift:])
        shift <<= 1
    return out


def _arc_time_pid_order(
    arcs: np.ndarray, times: np.ndarray, pids: np.ndarray
) -> np.ndarray:
    """Permutation putting rows in (arc, time, pid) service order.

    Every serve kernel orders its rows with this function.  Arc ids are
    non-negative and, within one call, the pids are distinct and
    non-negative, so that order is a *unique* permutation — any
    algorithm producing it matches ``np.lexsort((pids, times, arcs))``
    exactly.  This one needs two plain argsorts instead of three stable
    passes: rank the arrival epochs densely (equal floats share a rank,
    so exact time ties still fall through to the pid), then argsort a
    single packed ``(arc, rank, pid)`` int64 key.  Plain argsorts may be
    unstable, which is safe here precisely because ranks collapse equal
    times and the packed keys are unique — and they hit NumPy's
    vectorised quicksort, which the stable kinds cannot use.

    Falls back to ``np.lexsort`` when the packed key would overflow 63
    bits or any time is negative (the int64 view of an IEEE double is
    order-preserving only for non-negative values, ``-0.0`` included
    in the guard since its sign bit is set).
    """
    n = arcs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    t = np.ascontiguousarray(times, dtype=float)
    o_t = np.argsort(t.view(np.int64))
    t_s = t.view(np.int64)[o_t]
    if t_s[0] < 0:
        return np.lexsort((pids, times, arcs))
    r_sorted = np.empty(n, dtype=np.int64)
    r_sorted[0] = 0
    np.cumsum(t_s[1:] != t_s[:-1], out=r_sorted[1:])
    bits_p = int(pids.max()).bit_length()
    bits_r = int(r_sorted[-1]).bit_length()
    bits_a = int(arcs.max()).bit_length()
    if bits_a + bits_r + bits_p > 63:
        return np.lexsort((pids, times, arcs))
    rank = np.empty(n, dtype=np.int64)
    rank[o_t] = r_sorted
    key = (arcs << np.int64(bits_r + bits_p)) | (rank << np.int64(bits_p))
    key |= pids
    return np.argsort(key)


def serve_level(
    arcs: np.ndarray,
    times: np.ndarray,
    pids: np.ndarray,
    discipline: str = "fifo",
    service: float | np.ndarray = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve every server of one level in one shot.

    Parameters are parallel arrays (one entry per packet crossing the
    level): global arc id, arrival epoch at the arc, packet id for tie
    breaking.  ``service`` is the deterministic service duration —
    either a scalar (the paper's unit packets) or an array indexed by
    *global arc id* (the heterogeneous-server generality noted after
    Prop 11).  Returns ``(departures, order)`` where ``departures`` is
    aligned with the inputs and ``order`` is the service permutation
    (packets in (arc, time, pid) order) used for routing-decision
    positions.

    Precondition: arc ids are non-negative and the pids are **distinct
    and non-negative** within one call (a packet crosses a level at
    most once; the fixed-point solver passes hop-row indices).  The
    service order is then a unique permutation, which
    :func:`_arc_time_pid_order` computes with a packed two-pass sort —
    bit-identical to ``np.lexsort((pids, times, arcs))``.  Replication
    batches need no special path: their arc ids are offset per
    replication, so one sort over the stack is the concatenation of
    the per-replication orders.

    FIFO is solved for **all** arcs in one segmented Lindley recursion
    (``D_i = s*(i+1) + max_{j<=i}(t_j - s*j)`` per arc, the closed form
    of :func:`repro.sim.lindley.fifo_departure_times`, with the running
    maximum computed by :func:`_segmented_running_max`) — no Python
    loop over arcs, which is what makes the replication-batched engine
    path scale.  PS keeps the exact per-arc fair-share construction.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep, np.zeros(0, dtype=np.int64)
    per_arc = isinstance(service, np.ndarray)
    if not per_arc and service <= 0.0:
        raise ValueError(f"service time must be > 0, got {service}")
    order = _arc_time_pid_order(arcs, times, pids)
    a_s = arcs[order]
    t_s = times[order]
    starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
    bounds = np.r_[starts, n]
    dep_s = np.empty(n)
    if discipline == "fifo":
        counts = np.diff(bounds)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        idx = pos.astype(float)
        s_rows = service[a_s] if per_arc else float(service)
        run = _segmented_running_max(t_s - s_rows * idx, pos)
        dep_s = s_rows * (idx + 1.0) + run
    else:
        for i in range(starts.shape[0]):
            lo, hi = bounds[i], bounds[i + 1]
            s = float(service[int(a_s[lo])]) if per_arc else float(service)
            dep_s[lo:hi] = ps_departure_times(t_s[lo:hi], work=s)
    dep[order] = dep_s
    return dep, order


# ---------------------------------------------------------------------------
# packet mode
# ---------------------------------------------------------------------------


def simulate_hypercube_greedy(
    cube: Hypercube,
    sample: TrafficSample,
    *,
    dim_order: Optional[Sequence[int]] = None,
    discipline: str = "fifo",
    record_arc_log: bool = False,
) -> FeedForwardResult:
    """Route a traffic sample through the d-cube under greedy routing.

    ``dim_order`` is the *global* dimension crossing order shared by all
    packets (default: increasing — the paper's canonical scheme; any
    fixed permutation keeps the network levelled, enabling the E13
    ablation).  ``discipline="ps"`` replaces every arc's FIFO server
    with Processor Sharing (the network Q̃ of §3.3, but fed by physical
    packet paths).
    """
    d, n_nodes = cube.d, cube.num_nodes
    if dim_order is None:
        dim_order = range(d)
    else:
        if sorted(dim_order) != list(range(d)):
            raise ConfigurationError(
                f"dim_order must be a permutation of range({d}), got {dim_order!r}"
            )
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    n = origins.shape[0]
    diff = origins ^ dests
    x = origins.copy()
    cur = np.asarray(sample.times, dtype=float).copy()
    pids = np.arange(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for dim in dim_order:
        m = ((diff >> dim) & 1).astype(bool)
        if not m.any():
            continue
        tails = x[m]
        arc_ids = dim * n_nodes + tails
        t_in = cur[m]
        dep, _ = serve_level(arc_ids, t_in, pids[m], discipline)
        if record_arc_log:
            logs.append((pids[m], arc_ids, t_in, dep))
        cur[m] = dep
        x[m] = tails ^ (1 << dim)
    if np.any(x != dests):  # pragma: no cover - internal invariant
        raise SimulationError("packets did not reach their destinations")
    hops = np.bitwise_count(diff).astype(np.int64)
    arc_log = _merge_logs(logs) if record_arc_log else None
    return FeedForwardResult(cur, hops, arc_log, sample)


def simulate_butterfly_greedy(
    bf: Butterfly,
    sample: TrafficSample,
    *,
    discipline: str = "fifo",
    record_arc_log: bool = False,
) -> FeedForwardResult:
    """Route a traffic sample through the butterfly (unique paths, §4).

    Origins/destinations of the sample are row addresses; every packet
    crosses exactly one arc per level (d hops total).
    """
    d, rows_per_level = bf.d, bf.rows
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    n = origins.shape[0]
    diff = origins ^ dests
    rows = origins.copy()
    cur = np.asarray(sample.times, dtype=float).copy()
    pids = np.arange(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for level in range(d):
        kind = (diff >> level) & 1
        arc_ids = level * 2 * rows_per_level + 2 * rows + kind
        dep, _ = serve_level(arc_ids, cur, pids, discipline)
        if record_arc_log:
            logs.append((pids.copy(), arc_ids, cur.copy(), dep))
        cur = dep
        rows = rows ^ (kind << level)
    if n and np.any(rows != dests):  # pragma: no cover - internal invariant
        raise SimulationError("packets did not reach their destination rows")
    hops = np.full(n, d, dtype=np.int64)
    arc_log = _merge_logs(logs) if record_arc_log else None
    return FeedForwardResult(cur, hops, arc_log, sample)


# ---------------------------------------------------------------------------
# replication-batched packet mode
# ---------------------------------------------------------------------------
#
# R independent replications of the same spec are R disjoint copies of
# the network: offsetting every arc id by ``replication * num_arcs``
# makes the stacked system one big levelled network whose per-arc
# arrival sequences are exactly the per-replication ones.  The d-level
# loop then runs once for the whole batch — one sort and one
# segmented Lindley/PS solve per level instead of R — while each
# replication's delivery sub-array stays bit-identical to its
# standalone run (pinned by tests/test_golden_dispatch.py).


def _stack_samples(
    samples: Sequence[TrafficSample],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate samples into parallel arrays plus a replication id
    per packet and the per-replication packet counts."""
    counts = np.array([s.num_packets for s in samples], dtype=np.int64)
    times = np.concatenate([np.asarray(s.times, dtype=float) for s in samples])
    origins = np.concatenate(
        [np.asarray(s.origins, dtype=np.int64) for s in samples]
    )
    dests = np.concatenate(
        [np.asarray(s.destinations, dtype=np.int64) for s in samples]
    )
    rep = np.repeat(np.arange(len(samples), dtype=np.int64), counts)
    return times, origins, dests, rep, counts


def _split_delivery(
    delivery: np.ndarray, counts: np.ndarray
) -> List[np.ndarray]:
    return np.split(delivery, np.cumsum(counts)[:-1])


def simulate_hypercube_greedy_batch(
    cube: Hypercube,
    samples: Sequence[TrafficSample],
    *,
    dim_order: Optional[Sequence[int]] = None,
    discipline: str = "fifo",
) -> List[np.ndarray]:
    """Delivery epochs of R independent samples, one per-level sweep.

    Entry *r* of the result is bit-identical to
    ``simulate_hypercube_greedy(cube, samples[r], ...).delivery``: the
    replications share the vectorised level loop but never a server.

    Unlike the single-sample sweep, the batch keeps **no evolving
    per-packet state**: a packet's position entering level ``dim`` is
    ``origin XOR (diff & crossed-so-far)`` and its hop index is
    ``popcount(diff & crossed-so-far)``, both stateless bit algebra —
    so each level touches only its own rows (gather arrival, serve,
    scatter departure into the next hop's slot) instead of re-masking
    R stacked replications' worth of arrays.
    """
    d, n_nodes = cube.d, cube.num_nodes
    if dim_order is None:
        dim_order = range(d)
    elif sorted(dim_order) != list(range(d)):
        raise ConfigurationError(
            f"dim_order must be a permutation of range({d}), got {dim_order!r}"
        )
    times, origins, dests, rep, counts = _stack_samples(samples)
    arc_offset = rep * np.int64(cube.num_arcs)
    diff = origins ^ dests
    hops = np.bitwise_count(diff).astype(np.int64)
    total = int(hops.sum())
    delivery = times.copy()  # zero-hop packets are delivered at birth
    if total == 0:
        return _split_delivery(delivery, counts)
    #: pid-major per-hop arrival epochs; slot ``first[p] + k`` is hop k
    first = np.r_[0, np.cumsum(hops)[:-1]]
    arrivals = np.empty(total)
    routed = hops > 0
    arrivals[first[routed]] = times[routed]
    crossed = np.int64(0)
    for dim in dim_order:
        rows = np.flatnonzero((diff >> dim) & 1)
        below = crossed
        crossed |= np.int64(1) << dim
        if rows.size == 0:
            continue
        pdiff = diff[rows]
        already = pdiff & below
        k = np.bitwise_count(already).astype(np.int64)
        slots = first[rows] + k
        arc_ids = dim * n_nodes + (origins[rows] ^ already) + arc_offset[rows]
        dep, _ = serve_level(arc_ids, arrivals[slots], rows, discipline)
        last = k + 1 == hops[rows]
        delivery[rows[last]] = dep[last]
        cont = ~last
        arrivals[slots[cont] + 1] = dep[cont]
    return _split_delivery(delivery, counts)


def simulate_butterfly_greedy_batch(
    bf: Butterfly,
    samples: Sequence[TrafficSample],
    *,
    discipline: str = "fifo",
) -> List[np.ndarray]:
    """Delivery epochs of R independent samples, one per-level sweep
    (the butterfly analogue of :func:`simulate_hypercube_greedy_batch`)."""
    d, rows_per_level = bf.d, bf.rows
    times, origins, dests, rep, counts = _stack_samples(samples)
    arc_offset = rep * np.int64(bf.num_arcs)
    diff = origins ^ dests
    rows = origins.copy()
    cur = times.copy()
    n = times.shape[0]
    pids = np.arange(n, dtype=np.int64)
    for level in range(d):
        kind = (diff >> level) & 1
        arc_ids = level * 2 * rows_per_level + 2 * rows + kind + arc_offset
        dep, _ = serve_level(arc_ids, cur, pids, discipline)
        cur = dep
        rows = rows ^ (kind << level)
    if n and np.any(rows != dests):  # pragma: no cover - internal invariant
        raise SimulationError("packets did not reach their destination rows")
    return _split_delivery(cur, counts)


# ---------------------------------------------------------------------------
# chunked-horizon packet mode (streaming, bounded memory)
# ---------------------------------------------------------------------------
#
# The one-shot sweeps materialise every packet's every hop at once, so
# peak memory grows linearly with the horizon.  The chunked mode
# processes packets in birth-order chunks instead: a chunk's watermark
# is its last birth epoch, rows whose arrival at a level exceeds the
# watermark are parked for a later chunk, and each arc carries its
# queue state between chunks.  Because every future packet is born at
# or after the watermark (birth times are sorted), each arc's arrival
# stream up to the watermark is complete by the time its level is
# served, so the carried state continues the one-shot construction
# exactly.  Peak memory is O(chunk + in-flight rows + num_arcs) —
# bounded by the chunk knob and the topology, independent of the
# horizon.
#
# FIFO carries the Lindley prefix state (arrival count + running max)
# per arc, dense: the whole queue ahead of every arrival is determined
# at admission, so departures are emitted immediately — even past the
# watermark — and because ``max`` selects one of its operands exactly,
# the carried closed form reproduces every departure **bit for bit**
# (validated against the one-shot path in the tests).
#
# PS departures depend on arrivals beyond the chunk, so the carry is
# the set of in-service customers per arc instead: each busy arc keeps
# its live fair-share server (:class:`~repro.sim.servers.PSServer` —
# the in-service arrival epochs and residual work, encoded as fair-
# share thresholds) across chunk boundaries, departures are emitted
# only once the watermark passes them (no later arrival can change
# them: ties at a departure epoch are processed after the departure),
# and the final chunk's infinite watermark closes every busy period.
# The carried server replays the exact event order of the one-shot
# :func:`~repro.sim.servers.ps_departure_times` construction, so the
# sample path matches the one-shot sweep bit for bit as well (the
# tests pin <= 1e-9, the engine contract).
#
# To keep the per-chunk bookkeeping O(d) instead of O(d^2), rows carry
# their *level-space* crossing mask (bit ``di`` set iff position ``di``
# of the global crossing order is still to be crossed): the entry
# level and each next level are then count-trailing-zeros bit algebra
# instead of a scan over the remaining dimensions.


class _ArcCarry:
    """Dense per-arc FIFO Lindley state carried across horizon chunks.

    ``counts[a]`` is how many arrivals arc *a* has served so far and
    ``run[a]`` the running maximum of ``t_j - s*j`` over them — the
    prefix state of :func:`serve_level`'s closed form.  Memory is
    O(num_arcs): topology-bounded, independent of the horizon.
    """

    __slots__ = ("counts", "run")

    def __init__(self, num_arcs: int) -> None:
        self.counts = np.zeros(num_arcs, dtype=np.int64)
        self.run = np.full(num_arcs, -np.inf)


#: grow-on-demand scratch aranges shared by every carry-kernel call in
#: the process (workers are processes, so there is no sharing hazard)
_ARANGE_F = np.empty(0)
_ARANGE_I = np.empty(0, dtype=np.int64)


def _scratch_aranges(n: int) -> Tuple[np.ndarray, np.ndarray]:
    global _ARANGE_F, _ARANGE_I
    if _ARANGE_F.shape[0] < n:
        size = max(n, 2 * _ARANGE_F.shape[0])
        _ARANGE_F = np.arange(size, dtype=float)
        _ARANGE_I = np.arange(size, dtype=np.int64)
    return _ARANGE_F[:n], _ARANGE_I[:n]


def _serve_fifo_carry(
    arcs: np.ndarray,
    times: np.ndarray,
    pids: np.ndarray,
    service: float,
    carry: _ArcCarry,
) -> np.ndarray:
    """One chunk's share of a level's FIFO arrivals, with carry-over.

    Bit-identical continuation of :func:`serve_level`'s closed form:
    each arc's rows take global positions ``carry.counts[a]...`` and
    the running maximum seeds from the carried one.  Chunks split an
    arc's arrival sequence at a boundary that respects the (time, pid)
    service order, and ``max`` selects one of its operands exactly, so
    no departure epoch moves by a single bit.  The carried maximum is
    folded into each segment's head before the prefix scan — the scan
    then propagates it to every element, the same multiset maximum the
    historical post-scan ``np.maximum`` computed.
    """
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep
    order = _arc_time_pid_order(arcs, times, pids)
    a_s = arcs[order]
    t_s = times[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(a_s[1:], a_s[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.empty(starts.shape[0], dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n - starts[-1]
    uniq = a_s[starts]
    s = float(service)
    base = carry.counts[uniq]
    arange_f, arange_i = _scratch_aranges(n)
    pos = arange_i - np.repeat(starts, counts)
    # i + float(base - start) == (i - start) + base exactly: integers
    # below 2**52 stay exact through the cast and the add
    idx = arange_f + np.repeat((base - starts).astype(float), counts)
    vals = t_s - s * idx
    vals[starts] = np.maximum(vals[starts], carry.run[uniq])
    run = _segmented_running_max(vals, pos)
    dep[order] = s * (idx + 1.0) + run
    carry.counts[uniq] = base + counts
    ends = starts + counts - 1
    carry.run[uniq] = run[ends]
    return dep


class _PsLevelCarry:
    """Sparse per-arc PS state for one level, carried across chunks.

    ``servers`` maps an arc id to its live fair-share server — the
    in-service customers' arrival state encoded as departure thresholds
    (:class:`~repro.sim.servers.PSServer`); ``active`` is the subset of
    arcs with customers still in service, which must be drained up to
    every chunk's watermark even when the chunk brings them no new
    arrivals.  Idle servers are kept (not reset): their fair-share
    integral is part of the one-shot arithmetic, so keeping them makes
    the carried construction replay :func:`ps_departure_times` exactly.
    Memory is O(busy arcs + in-service customers) — topology-bounded.
    """

    __slots__ = ("servers", "active")

    def __init__(self) -> None:
        self.servers: Dict[int, "PSServer"] = {}
        self.active: set = set()

    @property
    def busy(self) -> bool:
        return bool(self.active)

    def serve(
        self,
        arcs: np.ndarray,
        times: np.ndarray,
        pids: np.ndarray,
        watermark: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Feed one chunk's share of a level's PS arrivals and return
        every departure due by the *watermark* as ``(pids, epochs)``.

        Replays the exact event order of the one-shot construction:
        before each arrival, every departure due at or before it pops
        (departures win ties — an arrival coinciding with a departure
        epoch renders the departing customer zero service), and at the
        chunk boundary every departure at or before the watermark pops.
        Later arrivals are all past the watermark, so the emitted
        epochs are final; customers still in service stay carried.
        """
        from repro.sim.servers import PSServer

        dep_pids: List[int] = []
        dep_times: List[float] = []
        servers = self.servers
        if arcs.shape[0]:
            order = _arc_time_pid_order(arcs, times, pids)
            a_s = arcs[order]
            t_s = times[order]
            p_s = pids[order]
            starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
            bounds = np.r_[starts, a_s.shape[0]]
            for i in range(starts.shape[0]):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                arc = int(a_s[lo])
                server = servers.get(arc)
                if server is None:
                    server = servers[arc] = PSServer()
                for j in range(lo, hi):
                    t = float(t_s[j])
                    nxt = server.next_departure_time()
                    while nxt is not None and nxt <= t:
                        dt, cid = server.pop_departure()
                        dep_pids.append(cid)
                        dep_times.append(dt)
                        nxt = server.next_departure_time()
                    server.arrive(t, customer_id=int(p_s[j]))
                self.active.add(arc)
        for arc in sorted(self.active):
            server = servers[arc]
            nxt = server.next_departure_time()
            while nxt is not None and nxt <= watermark:
                dt, cid = server.pop_departure()
                dep_pids.append(cid)
                dep_times.append(dt)
                nxt = server.next_departure_time()
            if server.num_active == 0:
                self.active.discard(arc)
        return (
            np.asarray(dep_pids, dtype=np.int64),
            np.asarray(dep_times, dtype=float),
        )


def _require_chunkable(discipline: str, chunk_packets: int) -> int:
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    chunk = int(chunk_packets)
    if chunk < 1:
        raise ConfigurationError(
            f"chunk_packets must be >= 1, got {chunk_packets!r}"
        )
    return chunk


def _level_space_diff(
    diff_vals: np.ndarray, dim_order: Optional[Tuple[int, ...]]
) -> np.ndarray:
    """Remap dim-space XOR masks into *level space*: bit ``di`` of the
    result is bit ``dim_order[di]`` of the input (identity order passes
    through).  In level space "next level to cross" is count-trailing-
    zeros, which keeps the chunk bookkeeping O(d) per packet."""
    if dim_order is None:
        return diff_vals
    out = np.zeros_like(diff_vals)
    for di, dim in enumerate(dim_order):
        out |= ((diff_vals >> np.int64(dim)) & 1) << np.int64(di)
    return out


def _ctz(values: np.ndarray) -> np.ndarray:
    """Count trailing zeros of strictly positive int64 values."""
    return np.bitwise_count((values & -values) - 1).astype(np.int64)


def _bucket_by_level(
    level_in: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    levels: np.ndarray,
    lo_level: int,
    pids: np.ndarray,
    times: np.ndarray,
    ldiff: np.ndarray,
) -> None:
    """Append ``(pids, times, ldiff)`` rows to their per-level input
    buckets in one stable sort + split (no per-dimension scan)."""
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels - lo_level)
    bounds = np.r_[0, np.cumsum(counts)]
    p_s, t_s, l_s = pids[order], times[order], ldiff[order]
    for k in np.flatnonzero(counts):
        lo, hi = bounds[k], bounds[k + 1]
        level_in[lo_level + k].append((p_s[lo:hi], t_s[lo:hi], l_s[lo:hi]))


def simulate_hypercube_greedy_chunked(
    cube: Hypercube,
    sample: TrafficSample,
    *,
    chunk_packets: int,
    dim_order: Optional[Sequence[int]] = None,
    discipline: str = "fifo",
) -> np.ndarray:
    """Delivery epochs of :func:`simulate_hypercube_greedy`, computed
    in birth-ordered chunks of at most ``chunk_packets`` packets.

    Matches the one-shot sweep exactly — FIFO bit for bit via the dense
    Lindley prefix carry, PS by replaying the fair-share construction
    through carried per-arc in-service state — with peak memory bounded
    by the chunk size and the topology instead of the horizon.
    """
    chunk = _require_chunkable(discipline, chunk_packets)
    d, n_nodes = cube.d, cube.num_nodes
    if dim_order is None:
        order_map: Optional[Tuple[int, ...]] = None
    elif sorted(dim_order) != list(range(d)):
        raise ConfigurationError(
            f"dim_order must be a permutation of range({d}), got {dim_order!r}"
        )
    else:
        dim_order = tuple(int(x) for x in dim_order)
        order_map = None if dim_order == tuple(range(d)) else dim_order
    dims = tuple(range(d)) if order_map is None else order_map
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    times = np.asarray(sample.times, dtype=float)
    n = origins.shape[0]
    diff = origins ^ dests
    delivery = times.copy()  # zero-hop packets are delivered at birth
    if n == 0 or not diff.any():
        return delivery
    #: bits (dim space) crossed before position di of the global order
    cum_mask = [np.int64(0)] * (d + 1)
    for di, dim in enumerate(dims):
        cum_mask[di + 1] = np.int64(int(cum_mask[di]) | (1 << dim))
    fifo = discipline == "fifo"
    carry = _ArcCarry(cube.num_arcs) if fifo else None
    ps_carry = None if fifo else [_PsLevelCarry() for _ in range(d)]
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    #: per level: rows parked by an earlier chunk because their arrival
    #: epoch exceeded its watermark — (pids, arrivals, level diffs)
    parked: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
        [] for _ in range(d)
    ]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        watermark = np.inf if hi >= n else float(times[hi - 1])
        level_in, parked = parked, [[] for _ in range(d)]
        routed = np.flatnonzero(diff[lo:hi])
        if routed.size:
            fresh = routed + lo
            ld = _level_space_diff(diff[fresh], order_map)
            # a packet enters at the first position it must cross
            _bucket_by_level(level_in, _ctz(ld), 0, fresh, times[fresh], ld)
        for di in range(d):
            if level_in[di]:
                pids_l = np.concatenate([c[0] for c in level_in[di]])
                t_l = np.concatenate([c[1] for c in level_in[di]])
                ld_l = np.concatenate([c[2] for c in level_in[di]])
                ready = t_l <= watermark
                if not ready.all():
                    wait = ~ready
                    parked[di].append((pids_l[wait], t_l[wait], ld_l[wait]))
                    pids_l = pids_l[ready]
                    t_l = t_l[ready]
                    ld_l = ld_l[ready]
            elif fifo or not ps_carry[di].busy:
                continue
            else:
                pids_l, t_l, ld_l = empty_i, empty_f, empty_i
            if fifo and pids_l.size == 0:
                continue
            already = diff[pids_l] & cum_mask[di]
            arc_ids = np.int64(dims[di]) * n_nodes + (origins[pids_l] ^ already)
            if fifo:
                out_pids = pids_l
                out_dep = _serve_fifo_carry(arc_ids, t_l, pids_l, 1.0, carry)
                out_ld = ld_l
            else:
                # a busy arc drains up to the watermark even when this
                # chunk brings it no new arrivals
                out_pids, out_dep = ps_carry[di].serve(
                    arc_ids, t_l, pids_l, watermark
                )
                if out_pids.size == 0:
                    continue
                out_ld = _level_space_diff(diff[out_pids], order_map)
            rem = out_ld >> np.int64(di + 1)
            done = rem == 0
            delivery[out_pids[done]] = out_dep[done]
            cont = np.flatnonzero(~done)
            if cont.size == 0:
                continue
            nxt = di + 1 + _ctz(rem[cont])
            _bucket_by_level(
                level_in, nxt, di + 1,
                out_pids[cont], out_dep[cont], out_ld[cont],
            )
    return delivery


def simulate_butterfly_greedy_chunked(
    bf: Butterfly,
    sample: TrafficSample,
    *,
    chunk_packets: int,
    discipline: str = "fifo",
) -> np.ndarray:
    """Delivery epochs of :func:`simulate_butterfly_greedy`, computed
    in birth-ordered chunks (the butterfly analogue of
    :func:`simulate_hypercube_greedy_chunked`)."""
    chunk = _require_chunkable(discipline, chunk_packets)
    d, rows_per_level = bf.d, bf.rows
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    times = np.asarray(sample.times, dtype=float)
    n = origins.shape[0]
    diff = origins ^ dests
    delivery = times.copy()
    if n == 0 or d == 0:
        return delivery
    fifo = discipline == "fifo"
    carry = _ArcCarry(bf.num_arcs) if fifo else None
    ps_carry = None if fifo else [_PsLevelCarry() for _ in range(d)]
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    parked: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(d)]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        watermark = np.inf if hi >= n else float(times[hi - 1])
        level_in, parked = parked, [[] for _ in range(d)]
        fresh = np.arange(lo, hi, dtype=np.int64)
        level_in[0].append((fresh, times[lo:hi]))
        for level in range(d):
            if level_in[level]:
                pids_l = np.concatenate([c[0] for c in level_in[level]])
                t_l = np.concatenate([c[1] for c in level_in[level]])
                ready = t_l <= watermark
                if not ready.all():
                    wait = ~ready
                    parked[level].append((pids_l[wait], t_l[wait]))
                    pids_l = pids_l[ready]
                    t_l = t_l[ready]
            elif fifo or not ps_carry[level].busy:
                continue
            else:
                pids_l, t_l = empty_i, empty_f
            if fifo and pids_l.size == 0:
                continue
            pdiff = diff[pids_l]
            # row address entering `level`: bits below it already applied
            rows_addr = origins[pids_l] ^ (pdiff & np.int64((1 << level) - 1))
            kind = (pdiff >> np.int64(level)) & 1
            arc_ids = level * 2 * rows_per_level + 2 * rows_addr + kind
            if fifo:
                out_pids = pids_l
                out_dep = _serve_fifo_carry(arc_ids, t_l, pids_l, 1.0, carry)
            else:
                out_pids, out_dep = ps_carry[level].serve(
                    arc_ids, t_l, pids_l, watermark
                )
                if out_pids.size == 0:
                    continue
            if level + 1 == d:
                delivery[out_pids] = out_dep
            else:
                level_in[level + 1].append((out_pids, out_dep))
    return delivery


def _merge_logs(
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> ArcLog:
    if not logs:
        empty_i = np.zeros(0, dtype=np.int64)
        return ArcLog(empty_i, empty_i.copy(), np.zeros(0), np.zeros(0))
    return ArcLog(
        np.concatenate([l[0] for l in logs]),
        np.concatenate([l[1] for l in logs]),
        np.concatenate([l[2] for l in logs]),
        np.concatenate([l[3] for l in logs]),
    )


# ---------------------------------------------------------------------------
# network (Markovian routing) mode
# ---------------------------------------------------------------------------


class LevelledSpec:
    """Interface for levelled networks with Markovian routing.

    Concrete specs (network Q, network R, the Fig. 2 example) provide
    the level structure and per-arc routing decision sampling; see
    :mod:`repro.core.qnetwork`.
    """

    num_arcs: int
    num_levels: int

    def arc_level(self, arc_id: int) -> int:
        raise NotImplementedError

    def draw_decisions(
        self, arc_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample *count* routing decisions for this arc.

        Each entry is the next arc id (strictly higher level) or
        :data:`EXIT`.
        """
        raise NotImplementedError


def simulate_markovian(
    spec: LevelledSpec,
    ext_times: np.ndarray,
    ext_arcs: np.ndarray,
    *,
    discipline: str = "fifo",
    rng: SeedLike = None,
    decisions: Optional[Dict[int, np.ndarray]] = None,
    record_decisions: bool = False,
    record_arc_log: bool = False,
    service_times: Optional[np.ndarray] = None,
) -> MarkovianResult:
    """Simulate a levelled network under Markovian routing.

    ``ext_times``/``ext_arcs`` give the external arrival epoch and entry
    arc of each customer.  If *decisions* is supplied, the k-th customer
    served by each arc takes that arc's k-th recorded decision — the
    exact coupling used by Lemmas 9/10 to compare FIFO and PS networks
    on one sample path.  Otherwise decisions are drawn from per-arc
    spawned RNG streams (and returned when *record_decisions*), so a
    FIFO run and a PS run with the same seed are automatically coupled.

    ``service_times`` optionally gives each arc its own deterministic
    service duration (shape ``(num_arcs,)``) — the "possibly with
    different service times" generality the paper notes after Prop 11;
    default is the unit service of the main model.
    """
    ext_times = np.asarray(ext_times, dtype=float)
    ext_arcs = np.asarray(ext_arcs, dtype=np.int64)
    if ext_times.shape != ext_arcs.shape:
        raise ConfigurationError("ext_times and ext_arcs must be parallel")
    if service_times is not None:
        service_times = np.asarray(service_times, dtype=float)
        if service_times.shape != (spec.num_arcs,):
            raise ConfigurationError(
                f"service_times must have shape ({spec.num_arcs},), "
                f"got {service_times.shape}"
            )
        if np.any(service_times <= 0):
            raise ConfigurationError("service times must be positive")
    n = ext_times.shape[0]
    pids = np.arange(n, dtype=np.int64)
    gen = as_generator(rng)
    levels = spec.num_levels

    # Per-level in-buckets: lists of (arcs, times, pids) chunks.
    buckets: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
        [] for _ in range(levels)
    ]
    if n:
        ext_levels = np.array([spec.arc_level(int(a)) for a in ext_arcs])
        for lvl in range(levels):
            m = ext_levels == lvl
            if m.any():
                buckets[lvl].append((ext_arcs[m], ext_times[m], pids[m]))

    used_decisions: Dict[int, np.ndarray] = {}
    exit_times = np.full(n, np.nan)
    hops = np.zeros(n, dtype=np.int64)
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    for lvl in range(levels):
        if not buckets[lvl]:
            continue
        arcs = np.concatenate([c[0] for c in buckets[lvl]])
        times = np.concatenate([c[1] for c in buckets[lvl]])
        pid_arr = np.concatenate([c[2] for c in buckets[lvl]])
        dep, order = serve_level(
            arcs,
            times,
            pid_arr,
            discipline,
            service=1.0 if service_times is None else service_times,
        )
        hops[pid_arr] += 1
        if record_arc_log:
            logs.append((pid_arr, arcs, times, dep))
        # Route in service order, arc by arc.
        a_s = arcs[order]
        dep_s = dep[order]
        pid_s = pid_arr[order]
        starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
        bounds = np.r_[starts, a_s.shape[0]]
        next_arcs = np.empty(a_s.shape[0], dtype=np.int64)
        for i in range(starts.shape[0]):
            lo, hi = bounds[i], bounds[i + 1]
            arc_id = int(a_s[lo])
            count = hi - lo
            if decisions is not None:
                if arc_id not in decisions or decisions[arc_id].shape[0] < count:
                    raise SimulationError(
                        f"coupled decision sequence for arc {arc_id} too short "
                        f"({count} needed)"
                    )
                dec = decisions[arc_id][:count]
            else:
                dec = spec.draw_decisions(arc_id, count, gen)
                if dec.shape[0] != count:
                    raise SimulationError(
                        f"spec returned {dec.shape[0]} decisions, expected {count}"
                    )
            if record_decisions:
                used_decisions[arc_id] = np.asarray(dec, dtype=np.int64).copy()
            next_arcs[lo:hi] = dec
        exiting = next_arcs == EXIT
        exit_times[pid_s[exiting]] = dep_s[exiting]
        moving = ~exiting
        if moving.any():
            mv_arcs = next_arcs[moving]
            mv_levels = np.array([spec.arc_level(int(a)) for a in mv_arcs])
            if np.any(mv_levels <= lvl):
                raise SimulationError(
                    "routing decision violates the levelled property"
                )
            for nxt in np.unique(mv_levels):
                m = mv_levels == nxt
                buckets[int(nxt)].append(
                    (mv_arcs[m], dep_s[moving][m], pid_s[moving][m])
                )
    if np.any(np.isnan(exit_times)):  # pragma: no cover - internal invariant
        raise SimulationError("some customers never exited the network")
    arc_log = _merge_logs(logs) if record_arc_log else None
    return MarkovianResult(
        exit_times,
        hops,
        arc_log,
        used_decisions if record_decisions else None,
    )
