"""Vectorised simulation of explicit arc paths: the solvers of both
path engines (``fixedpoint`` and ``event``).

The feed-forward engine (:mod:`repro.sim.feedforward`) solves a
levelled network in one sweep because a packet leaving level ``l``
only ever joins a level ``> l`` (Property B).  Ring and torus greedy
paths have no such global order — a path can wrap around the arc id
space — so no level order makes every server's arrival stream complete
before it is solved.  This module solves *hop rows* instead (one row
per packet and hop, packet-major), with the feed-forward engine's
kernels, in one of two ways, picked by one dispatch (:func:`_solve`)
that :func:`simulate_paths_fixed_point` and
:func:`repro.sim.eventsim.simulate_paths_event_driven` both call:

* **FIFO: one time-ordered pass.**  A FIFO departure comes one service
  after its join at the earliest, so when a window ``[T, T + w)``
  opens — ``T`` the earliest known unserved arrival, ``w`` one service
  less a rounding margin — every hop row arriving inside it is known
  (a birth, or the departure of a row already served), and every row
  arriving before it is already served: each arc's rows reach it in
  (time, row) order.  Each window's rows are served once on the
  chunked sweep's Lindley prefix carry
  (:func:`~repro.sim.feedforward._serve_fifo_carry` on one
  :class:`~repro.sim.feedforward._ArcCarry`), which continues
  :func:`~repro.sim.feedforward.serve_level`'s closed form bit for
  bit, and each departure becomes the arrival of its packet's next
  row.  The margin covers the closed form's rounding, which can put a
  departure a few ulps below ``fl(t + service)``.  Should a departure
  still land inside its own window (the service vanishes against the
  times involved), the pass raises
  :class:`~repro.errors.SimulationError` rather than return a wrong
  path.
* **PS: sweeps to a fixed point.**  A PS departure moves with every
  later arrival at its arc, so no window is ever final.  Per-hop
  arrival estimates start at the free-flow lower bound (birth +
  hops-so-far × service); each sweep solves every server whose
  arrivals moved in one vectorised shot
  (:func:`~repro.sim.feedforward.serve_level`) and feeds each
  departure into the next hop's arrival estimate, until a sweep moves
  nothing.  The sweep loop is discipline-generic: run on FIFO it is
  the oracle the pass is tested against.  A non-converging system
  (far above saturation, with a horizon so long that dependency
  chains exceed ``max_sweeps``) raises
  :class:`~repro.errors.SimulationError` rather than return an
  unconverged path.

Both end at a *consistent sample path*: every server's departures are
exactly its discipline applied to its actual arrivals.  Under FIFO
such a path is **unique** — service times are bounded below by a
positive constant, so the first event where two consistent paths
could differ is determined by strictly earlier events, on which they
agree, and a FIFO departure is fixed at admission — so the pass
returns the sweeps' answer bit for bit, and on a levelled network both
reproduce the feed-forward engine (tested).

Under PS in floating point the path is not unique where a path takes
the same arc on two consecutive hops: a packet leaves arc ``a`` at
``d`` and rejoins ``a`` at ``d``, and the sweeps can settle one ulp
below strict event order, admitting the rejoin ahead of the departure
it follows; :func:`~repro.sim.servers.ps_departure_times` accepts both
answers.  Two scans of 300 random cyclic systems (3/12/40 arcs, up to
200 packets, services 0.5/1/1.7/3) found the sweeps and a strict-order
event calendar apart on 56 of 298 and 63 of 297 systems with a hop (by
up to 5.2e-12), every answer consistent arc by arc, and on none once
consecutive repeats were redrawn.  No built-in network has such a path
(no arc is a loop), and no admissible PS engine pair over the built-in
networks and traffics differs (0 of 480 pairs; 0 of 468 in a rerun).
Such paths are accepted, not refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.eventsim import FlatPaths, flatten_paths, stack_replications
from repro.sim.feedforward import _ArcCarry, _serve_fifo_carry, serve_level

__all__ = [
    "FixedPointResult",
    "simulate_paths_fixed_point",
    "simulate_paths_fixed_point_batch",
]

#: the FIFO pass closes each window this fraction of a service short of
#: ``T + service``: far above the closed form's few-ulp rounding at the
#: times and queue lengths a window admits, far below one service
_MARGIN = 2.0**-20


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point run."""

    delivery: np.ndarray
    hops: np.ndarray
    #: PS: sweeps needed to reach the fixed point; FIFO: 1 (one pass);
    #: 0 when no packet has a hop
    sweeps: int
    #: hop rows solved: under PS, summed over the sweeps — with
    #: ``rep_blocks``, replications that reached their fixed point drop
    #: out of later sweeps, so this is less than ``sweeps * total_rows``
    #: on mixed-convergence batches; under FIFO, the row count (the
    #: pass serves each row once)
    sweep_rows: int = 0


def simulate_paths_fixed_point(
    num_arcs: int,
    birth_times: np.ndarray,
    paths: Union[FlatPaths, Sequence[Sequence[int]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
    max_sweeps: Optional[int] = None,
    rep_blocks: Optional[np.ndarray] = None,
) -> FixedPointResult:
    """Simulate packets following explicit arc paths, vectorised.

    Same contract as
    :func:`repro.sim.eventsim.simulate_paths_event_driven`, which runs
    this module's solvers too: *paths* is a per-packet sequence of
    arc ids in ``range(num_arcs)``, or a
    :class:`~repro.sim.eventsim.FlatPaths`; a packet with an empty path
    is delivered at birth.  Sample paths match the feed-forward engine
    bit for bit wherever both run (both solve each server with the
    closed form of :func:`~repro.sim.feedforward.serve_level`).

    FIFO makes one time-ordered pass; PS sweeps to a fixed point, at
    most ``max_sweeps`` times (see the module docstring).

    ``rep_blocks`` is the replication-batching fast path of the PS
    sweeps: boundaries of contiguous *hop-row* runs whose arc-id ranges
    are disjoint — how the batch entry point stacks R replications.
    Blocks converge independently: once a block's sweep moves nothing
    it is dropped from all later sweeps (its arc ids are disjoint, so
    no sibling can perturb it), which :attr:`FixedPointResult.sweep_rows`
    makes observable — on a mixed-convergence batch it is strictly less
    than ``sweeps * total_rows`` while the sample path stays
    bit-identical.
    """
    fp, delivery, _, sweeps, sweep_rows = _solve(
        num_arcs, birth_times, paths, discipline, service, max_sweeps, rep_blocks
    )
    return FixedPointResult(delivery, fp.hops(), sweeps, sweep_rows)


def _solve(
    num_arcs: int,
    birth_times: np.ndarray,
    paths: Union[FlatPaths, Sequence[Sequence[int]]],
    discipline: str,
    service: float,
    max_sweeps: Optional[int] = None,
    rep_blocks: Optional[np.ndarray] = None,
) -> Tuple[FlatPaths, np.ndarray, np.ndarray, int, int]:
    """Check a path system and solve it: the one dispatch from
    discipline to solver behind both path engines.

    Returns ``(paths, delivery, departures, sweeps, sweep_rows)``: the
    packed paths, one delivery epoch per packet, one departure per hop
    row (packet-major) and the solver's counts.  ``_fifo_pass`` is
    looked up when called, so swapping the module attribute for
    :func:`_sweeps` (as the pass's oracle test and the engine bench do)
    re-routes FIFO in both engines.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    if not service > 0:
        raise ConfigurationError(f"service must be > 0, got {service}")
    births = np.asarray(birth_times, dtype=float)
    if len(paths) != births.shape[0]:
        raise ConfigurationError("paths and birth_times must be parallel")
    fp = flatten_paths(paths)
    delivery = births.copy()  # zero-hop packets are delivered at birth
    if fp.flat.shape[0] == 0:
        return fp, delivery, np.empty(0), 0, 0
    lo, hi = int(fp.flat.min()), int(fp.flat.max())
    if lo < 0 or hi >= num_arcs:
        raise SimulationError(f"arc id {lo if lo < 0 else hi} out of range")
    solve = _fifo_pass if discipline == "fifo" else _sweeps
    departures, sweeps, sweep_rows = solve(
        num_arcs, births, fp, discipline, service, max_sweeps, rep_blocks
    )
    routed = fp.hops() > 0
    delivery[routed] = departures[fp.start[1:][routed] - 1]
    return fp, delivery, departures, sweeps, sweep_rows


def _fifo_pass(
    num_arcs: int,
    births: np.ndarray,
    fp: FlatPaths,
    discipline: str,
    service: float,
    max_sweeps: Optional[int],
    rep_blocks: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int]:
    """FIFO departures of every hop row, window by window in time order.

    Takes :func:`_sweeps`' arguments, so either can solve FIFO;
    one pass needs no sweep ceiling and no per-block convergence, so
    ``discipline``, ``max_sweeps`` and ``rep_blocks`` go unused.
    """
    hop_arc = fp.flat
    total = hop_arc.shape[0]
    departures = np.empty(total)
    carry = _ArcCarry(num_arcs)
    width = service - service * _MARGIN
    routed = fp.hops() > 0
    final = np.zeros(total, dtype=bool)
    final[fp.start[1:][routed] - 1] = True
    # births in time order behind a pointer; forwarded rows pending
    b_rows = fp.start[:-1][routed]
    b_t = births[routed]
    order = np.argsort(b_t, kind="stable")
    b_rows, b_t = b_rows[order], b_t[order]
    ptr = 0
    p_rows = np.zeros(0, dtype=np.int64)
    p_t = np.zeros(0)
    while ptr < b_t.shape[0] or p_t.shape[0]:
        t0 = b_t[ptr] if ptr < b_t.shape[0] else np.inf
        if p_t.shape[0]:
            t0 = min(t0, p_t.min())
        wend = t0 + width
        if not wend > t0:  # inf/NaN times, or t + service rounds to t
            raise SimulationError(f"service {service} vanishes at t={t0}")
        j = int(np.searchsorted(b_t, wend))
        due = p_t < wend
        rows = np.concatenate((b_rows[ptr:j], p_rows[due]))
        times = np.concatenate((b_t[ptr:j], p_t[due]))
        ptr = j
        wait = ~due
        p_rows, p_t = p_rows[wait], p_t[wait]
        dep = _serve_fifo_carry(hop_arc[rows], times, rows, service, carry)
        departures[rows] = dep
        fwd = ~final[rows]
        if fwd.any():
            nxt = dep[fwd]
            if nxt.min() < wend:
                raise SimulationError(
                    f"a departure at {nxt.min()} rejoins the window "
                    f"[{t0}, {wend}) it left: service {service} is lost "
                    "to rounding at these times"
                )
            p_rows = np.concatenate((p_rows, rows[fwd] + 1))
            p_t = np.concatenate((p_t, nxt))
    return departures, 1, total


def _sweeps(
    num_arcs: int,
    births: np.ndarray,
    fp: FlatPaths,
    discipline: str,
    service: float,
    max_sweeps: Optional[int],
    rep_blocks: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int]:
    """Departures of every hop row by sweeping to a fixed point.

    Returns ``(departures, sweeps, sweep_rows)``; raises
    :class:`~repro.errors.SimulationError` after ``max_sweeps`` sweeps
    without convergence.
    """
    hop_arc = fp.flat
    total = hop_arc.shape[0]
    hops = fp.hops()
    hop_pid = np.repeat(np.arange(hops.shape[0], dtype=np.int64), hops)
    #: rows whose arrival is the previous row's departure (same packet)
    chained = np.zeros(total, dtype=bool)
    chained[1:] = hop_pid[1:] == hop_pid[:-1]

    # Free-flow lower bound: birth + (hops already crossed) * service.
    position = np.arange(total, dtype=np.int64) - np.repeat(fp.start[:-1], hops)
    arrivals = np.repeat(births, hops) + position * service

    if max_sweeps is None:
        # Every sweep finalises at least the earliest not-yet-consistent
        # event — or, under PS, every second sweep does when that event
        # is a departure whose packet rejoins the same arc: a rejoin
        # estimated too early shares the server and pushes the
        # departure late, and the next sweep admits it after.  So
        # 2 * total + 2 sweeps suffice (one-arc systems need up to
        # 1.45 * (total + 2)); real workloads converge in O(max path
        # length + queue chain length).
        max_sweeps = 2 * total + 2
    chained_rows = np.flatnonzero(chained)
    departures = np.empty(total)
    # Only arcs whose arrival estimates changed need re-solving: the
    # cached departures of every other arc remain its discipline
    # applied to its (unchanged) actual arrivals.
    arc_dirty = np.ones(num_arcs, dtype=bool)
    # Rep-blocked convergence: a block whose sweep moves nothing is at
    # its fixed point, and block arc-id ranges are disjoint, so nothing
    # can ever dirty it again — drop its rows out of later sweeps
    # entirely (the per-sweep dirty gather and moved check are O(active
    # rows), not O(total)).  The final sample path is bit-identical:
    # dropped rows are exactly those the dirty mask would exclude.
    bounds = (
        np.array([0, total], dtype=np.int64)
        if rep_blocks is None
        else np.asarray(rep_blocks, dtype=np.int64)
    )
    num_blocks = bounds.shape[0] - 1
    active_ids = np.arange(num_blocks, dtype=np.int64)
    act_rows = np.arange(total, dtype=np.int64)
    act_chained = chained_rows
    sweep_rows = 0
    for sweep in range(1, max_sweeps + 1):
        sweep_rows += int(act_rows.shape[0])
        rows = act_rows[arc_dirty[hop_arc[act_rows]]]
        # serve_level needs distinct tie-break ids, and a packet id
        # repeats once per hop; hop rows are distinct, increasing and
        # packet-major, so (arc, time, row) order equals
        # np.lexsort((hop_pid[rows], times, arcs)) exactly
        departures[rows], _ = serve_level(
            hop_arc[rows], arrivals[rows], rows, discipline, service
        )
        moved = act_chained[
            departures[act_chained - 1] != arrivals[act_chained]
        ]
        if moved.size == 0:
            return departures, sweep, sweep_rows
        arrivals[moved] = departures[moved - 1]
        arc_dirty[:] = False
        arc_dirty[hop_arc[moved]] = True
        if num_blocks > 1:
            moved_ids = np.unique(
                np.searchsorted(bounds, moved, side="right") - 1
            )
            if moved_ids.shape[0] < active_ids.shape[0]:
                active_ids = moved_ids
                act_rows = np.concatenate(
                    [
                        np.arange(bounds[b], bounds[b + 1], dtype=np.int64)
                        for b in active_ids
                    ]
                )
                act_chained = act_rows[chained[act_rows]]
    raise SimulationError(
        f"fixed-point simulation did not converge in {max_sweeps} sweeps "
        f"({total} hops); the system is far above saturation"
    )


def simulate_paths_fixed_point_batch(
    num_arcs: int,
    birth_times: Sequence[np.ndarray],
    paths: Sequence[Union[FlatPaths, Sequence[Sequence[int]]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
) -> List[np.ndarray]:
    """One fixed-point solve for R independent replications.

    ``birth_times[r]`` / ``paths[r]`` describe replication *r*;
    offsetting its arc ids by ``r * num_arcs``
    (:func:`~repro.sim.eventsim.stack_replications`) turns the batch
    into one system of R disjoint sub-networks, solved by a **single**
    FIFO pass or PS sweep loop.  No replication's rows ever share an
    arc with another's, so entry *r* of the result is bit-identical to
    ``simulate_paths_fixed_point(num_arcs, birth_times[r], paths[r],
    ...).delivery`` (under PS a converged replication drops out of the
    remaining sweeps entirely — extra sweeps demanded by a
    slower-converging sibling never touch its rows).
    """
    reps = len(birth_times)
    if len(paths) != reps:
        raise ConfigurationError("birth_times and paths must be parallel")
    if reps == 0:
        return []
    births, stacked, bounds = stack_replications(num_arcs, birth_times, paths)
    result = simulate_paths_fixed_point(
        num_arcs * reps,
        births,
        stacked,
        discipline=discipline,
        service=service,
        rep_blocks=stacked.start[bounds],
    )
    return np.split(result.delivery, bounds[1:-1])
