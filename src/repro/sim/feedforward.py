"""Vectorised simulation of levelled networks (the HPC fast path).

The equivalent networks Q (hypercube, §3.1) and R (butterfly, §4.3) are
*levelled*: a packet leaving a level-``l`` server only ever joins a
server at a level ``> l`` (Property B).  Consequently the whole sample
path can be computed **level by level with no event calendar**: once
levels ``0..l-1`` are solved, the complete arrival stream of every
level-``l`` server is known, and each server is solved in one shot —
FIFO by the closed-form Lindley recursion
(:func:`repro.sim.lindley.fifo_departure_times`), PS by the exact
fair-share construction of :class:`repro.sim.servers.PSServer`, run
for every arc of a level at once by one kernel (:func:`_serve_ps`).

Two front ends:

* *packet mode* — route actual packets of a
  :class:`~repro.traffic.workload.TrafficSample` along their canonical
  paths (the physical system of the paper).  One sweep serves both
  networks and every route: a *level map* (:class:`HypercubeLevels`,
  :class:`ButterflyLevels`) says which levels a packet crosses and
  which arc it holds there, and :func:`simulate_levelled` solves R
  stacked replications in one pass, or one replication in
  birth-ordered windows of bounded memory (``chunk_packets``);
  :func:`simulate_hypercube_greedy` / :func:`simulate_butterfly_greedy`
  wrap it for one sample;
* :func:`simulate_markovian` — *network mode*: simulate a levelled
  network spec with Markovian routing decisions (networks Q/R and the
  Fig. 2 example), with optional **decision coupling** for the
  Lemma 9/10 sample-path comparisons.

FIFO ties are broken by packet id (birth order) — the deterministic
stand-in for the paper's "first arrived at the node" rule — and the
fixed-point path engine uses the same rule, so both engines produce
the same sample path (cross-validated in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.rng import SeedLike, as_generator
from repro.sim.measurement import DelayRecord
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


#: calls with fewer rows than this (at least 1: the packed key needs a
#: row) take ``np.lexsort``.  The packed key pays a fixed ~20 µs in
#: array operations, so an interleaved sweep (2 vCPUs, NumPy 2.4) found
#: lexsort faster up to ~480 rows (4.9 vs 25.0 µs at 64, 40.1 vs
#: 40.4 µs at 480) and slower from 512 on (60.7 vs 43.0 µs at 544,
#: 177.9 vs 68.9 µs at 1,024)
_LEXSORT_ROWS = 512


def _arc_time_pid_order(
    arcs: np.ndarray, times: np.ndarray, pids: np.ndarray
) -> np.ndarray:
    """Permutation putting rows in (arc, time, pid) service order.

    Every serve kernel orders its rows with this function.  Arc ids are
    non-negative and, within one call, the pids are distinct and
    non-negative, so that order is a *unique* permutation — any
    algorithm producing it matches ``np.lexsort((pids, times, arcs))``
    exactly.  Below :data:`_LEXSORT_ROWS` rows that lexsort is the
    fastest.  Above it, two plain argsorts beat its three stable
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
    if n < _LEXSORT_ROWS:
        return np.lexsort((pids, times, arcs))
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
    path scale.  PS runs the fair-share construction of every arc at
    once (:func:`_serve_ps`), bit-identical to
    :func:`repro.sim.servers.ps_departure_times` arc by arc.

    ``service`` must be > 0 on every arc the call touches, under either
    discipline; anything else (zero, negative, NaN) raises
    ``ValueError``.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep, np.zeros(0, dtype=np.int64)
    per_arc = isinstance(service, np.ndarray)
    if not per_arc and not service > 0.0:
        raise ValueError(f"service time must be > 0, got {service}")
    order = _arc_time_pid_order(arcs, times, pids)
    a_s = arcs[order]
    t_s = times[order]
    starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
    bounds = np.r_[starts, n]
    if per_arc:
        work = service[a_s[starts]]
        if not (work > 0.0).all():
            bad = work[~(work > 0.0)][0]
            raise ValueError(f"service time must be > 0, got {bad}")
    if discipline == "fifo":
        counts = np.diff(bounds)
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        idx = pos.astype(float)
        s_rows = service[a_s] if per_arc else float(service)
        run = _segmented_running_max(t_s - s_rows * idx, pos)
        dep_s = s_rows * (idx + 1.0) + run
    else:
        k = starts.shape[0]
        if not per_arc:
            work = np.full(k, float(service))
        dep_s = np.zeros(n + 1)
        _serve_ps(
            t_s, dep_s, starts, starts, bounds[1:], work,
            np.zeros(k), np.zeros(k), np.inf,
        )
        dep_s = dep_s[:n]
    dep[order] = dep_s
    return dep, order


# ---------------------------------------------------------------------------
# the Processor-Sharing kernel
# ---------------------------------------------------------------------------
#
# One arc's PS server is the fair-share construction of
# :class:`~repro.sim.servers.PSServer`: the integral ``S`` of
# ``1/n(u)``, the clock ``now``, and per customer the threshold
# ``S(arrival) + work`` at which it leaves.  With equal work on an arc
# thresholds never reorder, so customers leave in admission order and
# an arc's queue is a run of consecutive rows: ``head`` is the first row
# still in service, ``nxt`` the next row to arrive, and ``nxt - head``
# the number in service.  An arc's next event is the arrival ``t[nxt]``
# if it comes strictly before the next departure
# ``now + (threshold[head] - S) * (nxt - head)``, else that departure
# (departures win ties).
#
# While many arcs have events left, per-arc arrays advance every one of
# them by one event per step; once fewer than _PS_LOCKSTEP_ARCS remain
# (a level's few hot arcs, or a narrow network's every arc), each drains
# on Python floats, where a step costs far less than a round of array
# operations.  Both phases do PSServer's float operations in its order,
# so departures are bit-identical to ps_departure_times, arc by arc.

#: arcs with events left below which the PS kernel drains arc by arc
_PS_LOCKSTEP_ARCS = 128


def _serve_ps(
    t: np.ndarray,
    buf: np.ndarray,
    lo: np.ndarray,
    adm: np.ndarray,
    hi: np.ndarray,
    work: np.ndarray,
    S: np.ndarray,
    now: np.ndarray,
    watermark: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Processor-Sharing departures of many arcs, exactly.

    Rows are customers in service order, arc by arc: arc ``k`` owns
    rows ``[lo[k], hi[k])``.  Rows ``[lo[k], adm[k])`` are in service on
    entry, their thresholds in ``buf``; rows ``[adm[k], hi[k])`` arrive
    at epochs ``t``, each no later than *watermark*.  ``work``, ``S``
    and ``now`` are per arc; ``S`` and ``now`` are advanced in place.
    ``buf`` has one spare slot past the last row and reads zero at the
    rows still to arrive.

    Every arc runs until its next departure lies past the watermark
    (``inf`` serves every customer).  On return ``buf`` holds each
    departed row's epoch and each remaining row's threshold.  Returns
    ``(head, due)``: per arc, the first row still in service and the
    epoch of its departure if nothing else arrives (``inf`` when idle).
    """
    head = lo.copy()
    if lo.shape[0] < _PS_LOCKSTEP_ARCS:
        return head, _ps_drain(t, buf, head, adm, hi, work, S, now, watermark)
    nxt = adm.copy()
    due = np.full(lo.shape[0], np.inf)
    todo = _ps_lockstep(t, buf, head, nxt, hi, work, S, now, due, watermark)
    if todo.shape[0]:
        # the few arcs left drain on a compact copy of their rows
        h = head[todo]
        cnt = hi[todo] - h
        off = np.cumsum(cnt) - cnt
        rows = np.arange(int(cnt.sum())) + np.repeat(h - off, cnt)
        sub = buf[rows]
        sub_head = off.copy()
        s, c = S[todo], now[todo]
        due[todo] = _ps_drain(
            t[rows], sub, sub_head, off + (nxt[todo] - h), off + cnt,
            work[todo], s, c, watermark,
        )
        buf[rows] = sub
        head[todo] = h + (sub_head - off)
        S[todo], now[todo] = s, c
    return head, due


def _ps_drain(
    t: np.ndarray,
    buf: np.ndarray,
    head: np.ndarray,
    nxt: np.ndarray,
    hi: np.ndarray,
    work: np.ndarray,
    S: np.ndarray,
    now: np.ndarray,
    watermark: float,
) -> np.ndarray:
    """:func:`_serve_ps` arc by arc, on Python floats.

    Each arc runs PSServer's operations one event at a time.  Updates
    ``buf``, ``head``, ``S`` and ``now`` in place (``nxt`` is the first
    row to arrive) and returns each arc's next departure epoch.
    """
    tl, bl = t.tolist(), buf.tolist()
    heads, ss, cs, dues = [], [], [], []
    for h, x, e, w, s, c in zip(
        head.tolist(), nxt.tolist(), hi.tolist(), work.tolist(),
        S.tolist(), now.tolist(),
    ):
        while True:
            k = x - h
            if k:
                d = c + (bl[h] - s) * k
                if x == e or not tl[x] < d:
                    if d > watermark:
                        break
                    if d < c - 1e-12:
                        raise ValueError(f"time moves backwards: {d} < {c}")
                    if d > c:
                        c = d
                    s = bl[h]
                    bl[h] = d
                    h += 1
                    continue
            elif x == e:
                d = np.inf
                break
            ta = tl[x]
            if ta < c - 1e-12:
                raise ValueError(f"time moves backwards: {ta} < {c}")
            if k:
                s += (ta - c) / k
            if ta > c:
                c = ta
            bl[x] = s + w
            x += 1
        heads.append(h)
        ss.append(s)
        cs.append(c)
        dues.append(d)
    buf[:] = bl
    head[:], S[:], now[:] = heads, ss, cs
    return np.array(dues, dtype=float)


def _ps_lockstep(
    t: np.ndarray,
    buf: np.ndarray,
    head: np.ndarray,
    nxt: np.ndarray,
    hi: np.ndarray,
    work: np.ndarray,
    S: np.ndarray,
    now: np.ndarray,
    due: np.ndarray,
    watermark: float,
) -> np.ndarray:
    """Step every arc with an event left by one event, in lockstep.

    Updates the per-arc ``head``, ``nxt``, ``S``, ``now`` and ``due`` of
    each arc it finishes and writes ``buf`` as :func:`_serve_ps` does.
    Returns the arcs that may still have events once fewer than
    :data:`_PS_LOCKSTEP_ARCS` of them do, their state written back.
    """
    t = np.append(t, 0.0)  # t[nxt] of an arc whose rows end the array
    sink = buf.shape[0] - 1  # the spare slot takes the masked-out writes
    bounded = watermark < np.inf
    live = np.arange(head.shape[0])
    h, x, e = head.copy(), nxt.copy(), hi
    s, c, w = S.copy(), now.copy(), work
    while True:
        k = x - h
        idle = k == 0
        # every read is finite (a threshold, an epoch or a zero), so an
        # idle arc's d is just c and raises no warning
        thr = buf[h]
        d = thr - s
        d *= k
        d += c
        ta = t[x]
        arr = ta < d
        arr |= idle
        arr &= x < e
        go = ~(arr | idle)
        if bounded:
            go &= d <= watermark
        ev = arr | go
        n_ev = np.count_nonzero(ev)
        te = np.where(arr, ta, d)
        back = te < c - 1e-12
        if back.any():
            bad = np.flatnonzero(back)[0]
            raise ValueError(f"time moves backwards: {te[bad]} < {c[bad]}")
        # an arrival adds (ta - now) / k to S (nothing on an idle arc:
        # the quotient by inf is zero); a departure snaps S to the
        # leaving customer's threshold
        inc = ta - c
        inc /= np.where(idle, np.inf, k)
        inc += s
        s = np.where(go, thr, s)
        s = np.where(arr, inc, s)
        np.maximum(c, te, out=c, where=ev)
        buf[np.where(arr, x, sink)] = s + w
        buf[np.where(go, h, sink)] = d
        x += arr
        h += go
        stopped = live.shape[0] - n_ev
        if n_ev >= _PS_LOCKSTEP_ARCS and stopped * 8 <= live.shape[0]:
            continue
        # an arc with no event now has none later: retire it
        done = ~ev
        gone = live[done]
        head[gone], nxt[gone], S[gone], now[gone] = h[done], x[done], s[done], c[done]
        due[gone] = np.where(idle[done], np.inf, d[done])
        if n_ev < _PS_LOCKSTEP_ARCS:
            rest = live[ev]
            head[rest], nxt[rest], S[rest], now[rest] = h[ev], x[ev], s[ev], c[ev]
            return rest
        live, h, x, e, s, c, w = (a[ev] for a in (live, h, x, e, s, c, w))


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
# packet mode: the level sweep
# ---------------------------------------------------------------------------
#
# One loop serves every route.  Each packet keeps its current epoch and
# the level-space mask of the levels it has still to cross, and the loop
# walks birth-ordered *windows* of packets: one window of every packet,
# or windows of ``chunk_packets``.  A window's watermark is its last
# birth epoch (``inf`` for the last window).  In a window, level ``l``
# takes the packets that still have to cross it and whose epoch is at
# most the watermark (one mask test, no sort), serves them, scatters
# their departures back and clears their bit.  Levels run in increasing
# order and every ready row of a lower level was served there, so such
# a packet has no level left below ``l``.  A row past the watermark
# keeps its bit and waits for a later window.  Every later packet is
# born at or after the watermark (births are sorted), so each arc's
# arrival stream up to the watermark is complete by the time its level
# is served.
#
# With one window every row is ready and no bit needs clearing.  A level
# every packet crosses (each butterfly level) is served on the whole
# arrays, and each level is one :func:`serve_level` call, looked up at
# call time so a caller may swap it.  R independent replications stack
# into that window: offsetting every arc id by ``replication *
# num_arcs`` makes them one big levelled network whose per-arc arrival
# sequences are exactly the per-replication ones, so each replication's
# deliveries stay bit-identical to its standalone run (pinned by
# tests/test_golden_dispatch.py).
#
# With several windows, peak memory is O(window + in-flight rows +
# num_arcs) instead of growing with the horizon, and each arc carries
# its queue state from window to window:
#
# * FIFO carries the Lindley prefix state (arrival count and running
#   max) per arc, dense (:class:`_ArcCarry`).  The whole queue ahead of
#   an arrival is known at admission, so its departure is emitted at
#   once, even past the watermark, and since ``max`` selects one of its
#   operands exactly, every departure equals the one-window one bit for
#   bit.
# * PS departures depend on later arrivals, so the carry is the PS
#   kernel's own state (:class:`_PsLevelCarry`): per-arc fair-share
#   integral and clock, plus each level's customers still in service.
#   Each window runs :func:`_serve_ps` on the arcs with new arrivals or
#   a departure due by the watermark, emits only departures at or
#   before it, and the last window's infinite watermark closes every
#   busy period.  Every arc runs the one-window kernel's float
#   operations in the same order, split at the watermarks.  A row the
#   carry holds reads NaN until it departs, so no window selects it
#   twice.


class _ArcCarry:
    """Dense per-arc FIFO Lindley state carried across windows.

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
    """One window's share of a level's FIFO arrivals, with carry-over.

    Bit-identical continuation of :func:`serve_level`'s closed form:
    each arc's rows take global positions ``carry.counts[a]...`` and
    the running maximum seeds from the carried one.  Windows split an
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
    """Dense per-arc PS state carried across windows.

    ``S[a]`` and ``now[a]`` are arc *a*'s fair-share integral and clock
    (:func:`_serve_ps`'s state), and ``due[a]`` the epoch of its next
    departure if nothing else arrives (``inf`` when idle).  Idle arcs
    keep their ``S`` and ``now``: both are part of the one-window
    arithmetic.  ``rows[level]`` holds the level's customers still in
    service as parallel ``(arcs, pids, thresholds)`` arrays, in
    admission order within each arc.  Arc ids are global, so one carry
    serves every level.  Memory is O(num_arcs + in-service customers):
    topology-bounded, independent of the horizon.
    """

    __slots__ = ("S", "now", "due", "rows")

    def __init__(self, num_arcs: int, num_levels: int) -> None:
        self.S = np.zeros(num_arcs)
        self.now = np.zeros(num_arcs)
        self.due = np.full(num_arcs, np.inf)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        self.rows = [empty] * num_levels

    def busy(self, level: int) -> bool:
        return self.rows[level][0].shape[0] > 0

    def serve(
        self,
        level: int,
        arcs: np.ndarray,
        times: np.ndarray,
        pids: np.ndarray,
        watermark: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Feed one window's share of a level's PS arrivals and return
        every departure due by the *watermark* as ``(pids, epochs)``.

        Only the arcs with new arrivals or a departure due by the
        watermark run: their in-service customers enter the kernel
        already admitted, ahead of the new arrivals, and
        :func:`_serve_ps` stops each arc at the watermark.  Later
        arrivals are all past the watermark, so the emitted epochs are
        final; customers still in service stay carried.
        """
        c_arcs, c_pids, c_thr = self.rows[level]
        if arcs.shape[0]:
            order = _arc_time_pid_order(arcs, times, pids)
            arcs, times, pids = arcs[order], times[order], pids[order]
            self.due[arcs] = -np.inf  # an arc with new arrivals runs
        take = ~(self.due[c_arcs] > watermark)
        n_in = int(np.count_nonzero(take))
        if not (n_in or arcs.shape[0]):
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        keep = ~take
        kept = (c_arcs[keep], c_pids[keep], c_thr[keep])
        # a stable sort by arc puts each arc's carried customers ahead
        # of its new arrivals, both already in service order
        a_s = np.concatenate((c_arcs[take], arcs))
        o = np.argsort(a_s, kind="stable")
        a_s = a_s[o]
        p_s = np.concatenate((c_pids[take], pids))[o]
        t_s = np.concatenate((np.zeros(n_in), times))[o]
        m = a_s.shape[0]
        buf = np.zeros(m + 1)
        buf[:-1] = np.concatenate((c_thr[take], np.zeros(arcs.shape[0])))[o]
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(a_s[1:], a_s[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = m
        adm = starts + np.add.reduceat((o < n_in).astype(np.int64), starts)
        uniq = a_s[starts]
        S, now = self.S[uniq], self.now[uniq]
        head, due = _serve_ps(
            t_s, buf, starts, adm, ends, np.ones(uniq.shape[0]), S, now, watermark
        )
        self.S[uniq], self.now[uniq], self.due[uniq] = S, now, due
        stay = np.arange(m) >= np.repeat(head, ends - starts)
        gone = ~stay
        self.rows[level] = (
            np.concatenate((kept[0], a_s[stay])),
            np.concatenate((kept[1], p_s[stay])),
            np.concatenate((kept[2], buf[:-1][stay])),
        )
        return p_s[gone], buf[:-1][gone]


def simulate_levelled(
    levels,
    samples: Sequence[TrafficSample],
    discipline: str = "fifo",
    *,
    chunk_packets: Optional[int] = None,
    record_arc_log: bool = False,
) -> Tuple[List[np.ndarray], Optional[ArcLog]]:
    """Delivery epochs of R ≥ 1 independent samples, one level sweep.

    *levels* is a level map (:class:`HypercubeLevels`,
    :class:`ButterflyLevels`, or any object with the same four
    members).  Returns ``(deliveries, arc_log)``: entry *r* of
    ``deliveries`` is sample *r*'s delivery epochs, bit-identical
    whatever else shares the sweep and whatever the chunk size, because
    replication *r* owns the arc ids ``[r * num_arcs, (r + 1) *
    num_arcs)`` and so never shares a server.  A packet that crosses no
    level is delivered at birth.  With ``record_arc_log`` the log holds
    every hop in those stacked arc ids and stacked packet ids (the
    plain ids when R = 1), level by level; otherwise it is ``None``.

    With ``chunk_packets`` the sweep walks the one sample in
    birth-ordered windows of that many packets, carrying each arc's
    queue state between them, so peak memory is bounded by the window
    and the topology instead of the horizon.  It raises
    ``ConfigurationError`` for a chunk size below 1, and for more than
    one sample or an arc log under ``chunk_packets``.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    n = sum(s.num_packets for s in samples)
    step = max(n, 1)
    if chunk_packets is not None:
        step = int(chunk_packets)
        if step < 1:
            raise ConfigurationError(
                f"chunk_packets must be >= 1, got {chunk_packets!r}"
            )
        if len(samples) != 1 or record_arc_log:
            raise ConfigurationError(
                "chunk_packets streams one sample per call, with no arc log"
            )
    one = step >= n

    def column(field, dtype):
        # one sample's arrays are used as they are, with no copy
        parts = [np.asarray(getattr(s, field), dtype=dtype) for s in samples]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    cur = column("times", float).copy()
    origins = column("origins", np.int64)
    diff = origins ^ column("destinations", np.int64)
    # the sweep clears bits in its own copy: the identity map returns diff
    rem = levels.crossings(diff).copy()
    every = int(np.bitwise_and.reduce(rem)) if n else 0
    offset = None
    if len(samples) > 1:
        offset = np.repeat(
            np.arange(len(samples), dtype=np.int64) * np.int64(levels.num_arcs),
            [s.num_packets for s in samples],
        )
    fifo = discipline == "fifo"
    if not one:
        carry = (
            _ArcCarry(levels.num_arcs)
            if fifo
            else _PsLevelCarry(levels.num_arcs, levels.num_levels)
        )
    logs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    lo = 0  # no packet below lo has a level left to enter
    for hi in range(step, n + step, step):
        hi = min(hi, n)
        watermark = np.inf if hi == n else float(cur[hi - 1])
        for level in range(levels.num_levels):
            bit = np.int64(1 << level)
            if one and every & bit:
                sel = slice(None)
                rows = np.arange(n, dtype=np.int64)
            else:
                ready = (rem[lo:hi] & bit) != 0
                if not one:
                    ready &= cur[lo:hi] <= watermark
                rows = sel = np.flatnonzero(ready) + lo
            if rows.size == 0 and (one or fifo or not carry.busy(level)):
                continue
            arc_ids = levels.arcs(level, origins[sel], diff[sel])
            if offset is not None:
                arc_ids = arc_ids + offset[sel]
            t_in = cur[sel]
            if one:
                dep, _ = serve_level(arc_ids, t_in, rows, discipline)
                if record_arc_log:
                    # t_in may be a view of cur, which the scatter overwrites
                    logs.append((rows, arc_ids, t_in.copy(), dep))
                cur[sel] = dep
                continue
            rem[rows] ^= bit
            if fifo:
                cur[rows] = _serve_fifo_carry(arc_ids, t_in, rows, 1.0, carry)
            else:
                # the carry holds its rows until they depart (NaN: no
                # window selects them), and a busy arc drains up to the
                # watermark even when this window brings it no arrivals
                cur[rows] = np.nan
                out, dep = carry.serve(level, arc_ids, t_in, rows, watermark)
                cur[out] = dep
        if hi < n:
            live = np.flatnonzero(rem[lo:hi])
            lo += int(live[0]) if live.size else hi - lo
    arc_log = _merge_logs(logs) if record_arc_log else None
    bounds = np.cumsum([s.num_packets for s in samples])[:-1]
    return np.split(cur, bounds), arc_log


def _greedy_result(
    levels, sample: TrafficSample, discipline: str, record_arc_log: bool
) -> FeedForwardResult:
    (delivery,), arc_log = simulate_levelled(
        levels, [sample], discipline, record_arc_log=record_arc_log
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
