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

* *packet mode* — route actual packets of a
  :class:`~repro.traffic.workload.TrafficSample` along their canonical
  paths (the physical system of the paper).  One sweep serves both
  networks: a *level map* (:class:`HypercubeLevels`,
  :class:`ButterflyLevels`) says which levels a packet crosses and
  which arc it holds there, and :func:`simulate_levelled` (R stacked
  replications, one shot) or :func:`simulate_levelled_chunked` (one
  replication, bounded memory) does the rest;
  :func:`simulate_hypercube_greedy` / :func:`simulate_butterfly_greedy`
  wrap it for one sample;
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
    "HypercubeLevels",
    "ButterflyLevels",
    "simulate_levelled",
    "simulate_levelled_chunked",
    "simulate_hypercube_greedy",
    "simulate_butterfly_greedy",
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
# packet mode: level maps
# ---------------------------------------------------------------------------
#
# The butterfly is the hypercube unfolded (§4), and on both a greedy
# packet enters level ``l`` at address ``origin XOR (diff & bits crossed
# before l)``, where ``diff = origin XOR destination``.  The networks
# differ only in *which* levels a packet crosses and in how (level,
# address, bit) numbers an arc, so every packet-mode sweep below is
# written once against a **level map** exposing
#
# * ``num_levels`` and ``num_arcs``;
# * ``crossings(diff)`` — the *level-space* mask of the levels each
#   packet crosses (bit ``l`` set iff it crosses level ``l``);
# * ``arcs(level, origins, diff)`` — the arc id each packet holds at
#   that level.
#
# A network plugin hands its map to the engine through
# :meth:`~repro.networks.api.NetworkPlugin.greedy_levels`.


class HypercubeLevels:
    """Level map of the d-cube under a global dimension crossing order.

    Level ``l`` is dimension ``dim_order[l]`` (default: increasing —
    the paper's canonical scheme; any fixed permutation keeps the
    network levelled).  A packet crosses it iff its XOR mask has that
    bit, on the arc ``dim * 2**d + tail``.
    """

    def __init__(
        self, cube: Hypercube, dim_order: Optional[Sequence[int]] = None
    ) -> None:
        d = cube.d
        if dim_order is None:
            dims = tuple(range(d))
        elif sorted(dim_order) != list(range(d)):
            raise ConfigurationError(
                f"dim_order must be a permutation of range({d}), got {dim_order!r}"
            )
        else:
            dims = tuple(int(dim) for dim in dim_order)
        self.num_levels = d
        self.num_arcs = cube.num_arcs
        self._dims = dims
        self._identity = dims == tuple(range(d))
        self._base = [np.int64(dim * cube.num_nodes) for dim in dims]
        #: dim-space bits crossed before each level
        self._below = [np.int64(0)] * (d + 1)
        for li, dim in enumerate(dims):
            self._below[li + 1] = self._below[li] | np.int64(1 << dim)

    def crossings(self, diff: np.ndarray) -> np.ndarray:
        if self._identity:
            return diff
        out = np.zeros_like(diff)
        for li, dim in enumerate(self._dims):
            out |= ((diff >> np.int64(dim)) & 1) << np.int64(li)
        return out

    def arcs(self, level: int, origins: np.ndarray, diff: np.ndarray) -> np.ndarray:
        return self._base[level] + (origins ^ (diff & self._below[level]))


class ButterflyLevels:
    """Level map of the d-dimensional butterfly (§4.1 unique paths).

    Every packet crosses every level once: at level ``l`` it leaves its
    current row by the straight (bit ``l`` of ``diff`` clear) or the
    vertical (set) arc, ``2 * (l * rows + row) + kind``.
    """

    def __init__(self, bf: Butterfly) -> None:
        self.num_levels = bf.d
        self.num_arcs = bf.num_arcs
        self._rows = bf.rows
        self._all = np.int64((1 << bf.d) - 1)

    def crossings(self, diff: np.ndarray) -> np.ndarray:
        return np.full_like(diff, self._all)

    def arcs(self, level: int, origins: np.ndarray, diff: np.ndarray) -> np.ndarray:
        rows = origins ^ (diff & np.int64((1 << level) - 1))
        kind = (diff >> np.int64(level)) & 1
        return np.int64(2 * level * self._rows) + 2 * rows + kind


# ---------------------------------------------------------------------------
# packet mode: the one-shot level sweep
# ---------------------------------------------------------------------------
#
# R independent replications of the same spec are R disjoint copies of
# the network: offsetting every arc id by ``replication * num_arcs``
# makes the stacked system one big levelled network whose per-arc
# arrival sequences are exactly the per-replication ones.  The level
# loop then runs once for the whole batch — one sort and one segmented
# Lindley/PS solve per level instead of R — while each replication's
# delivery sub-array stays bit-identical to its standalone run (pinned
# by tests/test_golden_dispatch.py).


def _every_packet_crosses(cross: np.ndarray) -> int:
    """Level-space mask of the levels that *every* packet crosses."""
    return int(np.bitwise_and.reduce(cross)) if cross.shape[0] else 0


def _stack_samples(
    samples: Sequence[TrafficSample], num_arcs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Concatenate samples into parallel (times, origins, destinations)
    arrays plus each packet's arc-id offset.  A single sample is used
    as is, with no copies and no offset."""
    if len(samples) == 1:
        s = samples[0]
        return (
            np.asarray(s.times, dtype=float),
            np.asarray(s.origins, dtype=np.int64),
            np.asarray(s.destinations, dtype=np.int64),
            None,
        )
    counts = np.array([s.num_packets for s in samples], dtype=np.int64)
    times = np.concatenate([np.asarray(s.times, dtype=float) for s in samples])
    origins = np.concatenate(
        [np.asarray(s.origins, dtype=np.int64) for s in samples]
    )
    dests = np.concatenate(
        [np.asarray(s.destinations, dtype=np.int64) for s in samples]
    )
    offset = np.repeat(np.arange(len(samples), dtype=np.int64), counts)
    offset *= np.int64(num_arcs)
    return times, origins, dests, offset


def simulate_levelled(
    levels,
    samples: Sequence[TrafficSample],
    discipline: str = "fifo",
    record_arc_log: bool = False,
) -> Tuple[List[np.ndarray], Optional[ArcLog]]:
    """Delivery epochs of R ≥ 1 independent samples, one level sweep.

    *levels* is a level map (:class:`HypercubeLevels`,
    :class:`ButterflyLevels`, or any object with the same four
    members).  Returns ``(deliveries, arc_log)``: entry *r* of
    ``deliveries`` is sample *r*'s delivery epochs, bit-identical
    whatever else shares the sweep, because replication *r* owns the
    arc ids ``[r * num_arcs, (r + 1) * num_arcs)`` and so never shares
    a server.  With ``record_arc_log`` the log holds every hop in
    those stacked arc ids and stacked packet ids (the plain ids when
    R = 1); otherwise it is ``None``.

    The sweep keeps one evolving value per packet, its current epoch:
    at each level it gathers the rows that cross it, serves them with
    :func:`serve_level` and scatters their departures back.  A level
    that every packet crosses (each butterfly level) is served on the
    whole arrays, with no gather.  A packet that crosses no level is
    delivered at birth.
    """
    times, origins, dests, offset = _stack_samples(samples, levels.num_arcs)
    diff = origins ^ dests
    cross = levels.crossings(diff)
    every = _every_packet_crosses(cross)
    cur = times.copy()
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for level in range(levels.num_levels):
        if every >> level & 1:
            sel = slice(None)
            rows = np.arange(cur.shape[0], dtype=np.int64)
        else:
            rows = sel = np.flatnonzero((cross >> np.int64(level)) & 1)
            if rows.size == 0:
                continue
        arc_ids = levels.arcs(level, origins[sel], diff[sel])
        if offset is not None:
            arc_ids = arc_ids + offset[sel]
        t_in = cur[sel]
        dep, _ = serve_level(arc_ids, t_in, rows, discipline)
        if record_arc_log:
            # t_in may be a view of cur, which the scatter overwrites
            logs.append((rows, arc_ids, t_in.copy(), dep))
        cur[sel] = dep
    arc_log = _merge_logs(logs) if record_arc_log else None
    if offset is None:
        return [cur], arc_log
    bounds = np.cumsum([s.num_packets for s in samples])[:-1]
    return np.split(cur, bounds), arc_log


def _greedy_result(
    levels, sample: TrafficSample, discipline: str, record_arc_log: bool
) -> FeedForwardResult:
    (delivery,), arc_log = simulate_levelled(
        levels, [sample], discipline, record_arc_log
    )
    diff = np.asarray(sample.origins, dtype=np.int64) ^ np.asarray(
        sample.destinations, dtype=np.int64
    )
    hops = np.bitwise_count(levels.crossings(diff)).astype(np.int64)
    return FeedForwardResult(delivery, hops, arc_log, sample)


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
    return _greedy_result(
        HypercubeLevels(cube, dim_order), sample, discipline, record_arc_log
    )


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
    return _greedy_result(ButterflyLevels(bf), sample, discipline, record_arc_log)


# ---------------------------------------------------------------------------
# packet mode: the chunked-horizon sweep (streaming, bounded memory)
# ---------------------------------------------------------------------------
#
# The one-shot sweep materialises every packet's every hop at once, so
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
# To keep the per-chunk bookkeeping O(levels) instead of O(levels^2),
# rows are routed by their level-space crossing mask: the entry level
# and each next level are count-trailing-zeros bit algebra instead of
# a scan over the remaining levels.


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


def _ctz(values: np.ndarray) -> np.ndarray:
    """Count trailing zeros of strictly positive int64 values."""
    return np.bitwise_count((values & -values) - 1).astype(np.int64)


def _bucket_by_level(
    level_in: List[List[Tuple[np.ndarray, np.ndarray]]],
    levels: np.ndarray,
    lo_level: int,
    pids: np.ndarray,
    times: np.ndarray,
) -> None:
    """Append ``(pids, times)`` rows to their per-level input buckets
    in one stable sort + split (no per-level scan)."""
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels - lo_level)
    bounds = np.r_[0, np.cumsum(counts)]
    p_s, t_s = pids[order], times[order]
    for k in np.flatnonzero(counts):
        lo, hi = bounds[k], bounds[k + 1]
        level_in[lo_level + k].append((p_s[lo:hi], t_s[lo:hi]))


def _advance(
    level_in: List[List[Tuple[np.ndarray, np.ndarray]]],
    delivery: np.ndarray,
    level: int,
    pids: np.ndarray,
    times: np.ndarray,
    cross: np.ndarray,
    every: int,
) -> None:
    """Route rows that have crossed every level below *level*: deliver
    the ones with no level left and bucket the rest by the next level
    each crosses (``cross`` is the level-space crossing mask of every
    packet, ``every`` the mask of levels all packets cross)."""
    if pids.size == 0:
        return
    if level == len(level_in):
        delivery[pids] = times
        return
    if every >> level & 1:
        # every row crosses *level* next (every butterfly row does):
        # no trailing-zero count, no bucketing sort
        level_in[level].append((pids, times))
        return
    rem = cross[pids] >> np.int64(level)
    done = rem == 0
    delivery[pids[done]] = times[done]
    cont = np.flatnonzero(~done)
    if cont.size:
        _bucket_by_level(
            level_in, level + _ctz(rem[cont]), level, pids[cont], times[cont]
        )


def simulate_levelled_chunked(
    levels,
    sample: TrafficSample,
    chunk_packets: int,
    discipline: str = "fifo",
) -> np.ndarray:
    """Delivery epochs of :func:`simulate_levelled` for one sample,
    computed in birth-ordered chunks of at most ``chunk_packets``
    packets.

    Matches the one-shot sweep exactly — FIFO bit for bit via the dense
    Lindley prefix carry, PS by replaying the fair-share construction
    through carried per-arc in-service state — with peak memory bounded
    by the chunk size and the topology instead of the horizon.
    """
    chunk = _require_chunkable(discipline, chunk_packets)
    num_levels = levels.num_levels
    origins = np.asarray(sample.origins, dtype=np.int64)
    dests = np.asarray(sample.destinations, dtype=np.int64)
    times = np.asarray(sample.times, dtype=float)
    n = origins.shape[0]
    diff = origins ^ dests
    cross = levels.crossings(diff)
    delivery = times.copy()  # zero-hop packets are delivered at birth
    if n == 0 or not cross.any():
        return delivery
    every = _every_packet_crosses(cross)
    fifo = discipline == "fifo"
    carry = _ArcCarry(levels.num_arcs) if fifo else None
    ps_carry = None if fifo else [_PsLevelCarry() for _ in range(num_levels)]
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0)
    #: per level: rows parked by an earlier chunk because their arrival
    #: epoch exceeded its watermark — (pids, arrivals)
    parked: List[List[Tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(num_levels)
    ]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        watermark = np.inf if hi >= n else float(times[hi - 1])
        level_in, parked = parked, [[] for _ in range(num_levels)]
        # a packet enters at the first level it crosses
        _advance(
            level_in, delivery, 0,
            np.arange(lo, hi, dtype=np.int64), times[lo:hi], cross, every,
        )
        for li in range(num_levels):
            if level_in[li]:
                pids_l = np.concatenate([c[0] for c in level_in[li]])
                t_l = np.concatenate([c[1] for c in level_in[li]])
                ready = t_l <= watermark
                if not ready.all():
                    wait = ~ready
                    parked[li].append((pids_l[wait], t_l[wait]))
                    pids_l = pids_l[ready]
                    t_l = t_l[ready]
            elif fifo or not ps_carry[li].busy:
                continue
            else:
                pids_l, t_l = empty_i, empty_f
            if fifo and pids_l.size == 0:
                continue
            arc_ids = levels.arcs(li, origins[pids_l], diff[pids_l])
            if fifo:
                out_pids = pids_l
                out_dep = _serve_fifo_carry(arc_ids, t_l, pids_l, 1.0, carry)
            else:
                # a busy arc drains up to the watermark even when this
                # chunk brings it no new arrivals
                out_pids, out_dep = ps_carry[li].serve(
                    arc_ids, t_l, pids_l, watermark
                )
            _advance(
                level_in, delivery, li + 1, out_pids, out_dep, cross, every
            )
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
