"""Vectorised fixed-point simulation of non-levelled networks.

The feed-forward engine (:mod:`repro.sim.feedforward`) solves a
levelled network in one sweep because a packet leaving level ``l``
only ever joins a level ``> l``.  Ring and torus greedy paths have no
such global order — a path can wrap around the arc id space — so no
single sweep order makes every server's arrival stream complete before
it is solved.

This module keeps the vectorised batch machinery anyway, by iterating
it to a fixed point.  Per-hop arrival-time estimates start at the
free-flow lower bound (birth + hops-so-far × service); each sweep
solves **every** server in one vectorised shot with the estimated
arrivals (:func:`repro.sim.feedforward.serve_level` — the same Lindley
/ Processor-Sharing kernels the feed-forward engine uses) and feeds
each departure into the next hop's arrival estimate.  When a sweep
changes nothing, the estimates are a *consistent sample path*: every
server's departures are exactly its discipline applied to its actual
arrivals.

Such a consistent sample path is **unique** (so the fixed point is the
true one, identical to the event calendar's): service times are bounded
below by a positive constant, so the first event where two consistent
paths could differ is determined by strictly earlier events — on which
they agree.  For a levelled network the iteration converges after at
most ``max hops`` sweeps and reproduces the feed-forward engine
bit-for-bit (tested); for ring/torus it converges in a few dozen
sweeps at the loads the scenarios use.  A non-converging system (e.g.
far above saturation with a horizon so long that dependency chains
exceed ``max_sweeps``) raises :class:`~repro.errors.SimulationError`
rather than returning an unconverged path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.feedforward import serve_level

__all__ = [
    "FixedPointResult",
    "simulate_paths_fixed_point",
    "simulate_paths_fixed_point_batch",
]


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point run."""

    delivery: np.ndarray
    hops: np.ndarray
    #: sweeps needed to reach the fixed point (diagnostics / benchmarks)
    sweeps: int
    #: total hop-rows scanned across all sweeps — the convergence
    #: loop's real work metric: with ``rep_blocks``, replications that
    #: reached their fixed point drop out of later sweeps, so this is
    #: less than ``sweeps * total_rows`` on mixed-convergence batches
    sweep_rows: int = 0


def simulate_paths_fixed_point(
    num_arcs: int,
    birth_times: np.ndarray,
    paths: Sequence[Sequence[int]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
    max_sweeps: Optional[int] = None,
    rep_blocks: Optional[np.ndarray] = None,
) -> FixedPointResult:
    """Simulate packets following explicit arc paths, vectorised.

    Same contract as
    :func:`repro.sim.eventsim.simulate_paths_event_driven` (and
    cross-validated against it): *paths* is a per-packet sequence of
    arc ids in ``range(num_arcs)``; a packet with an empty path is
    delivered at birth.  Sample paths match the feed-forward engine bit
    for bit wherever both run (both solve each server with
    :func:`~repro.sim.feedforward.serve_level`).  The event engine agrees
    to about 1e-14 under FIFO, not bit for bit: its FIFO core adds
    ``start + service`` one departure at a time where the sweeps use the
    Lindley closed form.  Under PS it agrees to floating-point round-off.

    ``rep_blocks`` is the replication-batching fast path: boundaries of
    contiguous *hop-row* runs whose arc-id ranges are disjoint — how
    the batch entry point stacks R replications.  Blocks converge
    independently: once a block's sweep moves nothing it is dropped
    from all later sweeps (its arc ids are disjoint, so no sibling can
    perturb it), which :attr:`FixedPointResult.sweep_rows` makes
    observable — on a mixed-convergence batch it is strictly less than
    ``sweeps * total_rows`` while the sample path stays bit-identical.
    """
    if discipline not in ("fifo", "ps"):
        raise ConfigurationError(f"unknown discipline {discipline!r}")
    if service <= 0:
        raise ConfigurationError(f"service must be > 0, got {service}")
    births = np.asarray(birth_times, dtype=float)
    n = births.shape[0]
    if len(paths) != n:
        raise ConfigurationError("paths and birth_times must be parallel")
    hops = np.array([len(p) for p in paths], dtype=np.int64)
    total = int(hops.sum())
    delivery = births.copy()  # zero-hop packets are delivered at birth
    if total == 0:
        return FixedPointResult(delivery, hops, 0, 0)

    # Flatten the ragged paths: one row per (packet, hop).
    hop_arc = np.fromiter(
        (a for p in paths for a in p), dtype=np.int64, count=total
    )
    if hop_arc.size and (hop_arc.min() < 0 or hop_arc.max() >= num_arcs):
        raise SimulationError("arc id out of range")
    hop_pid = np.repeat(np.arange(n, dtype=np.int64), hops)
    first = np.r_[0, np.cumsum(hops)[:-1]]  # row of each packet's hop 0
    last = first + hops - 1  # row of each packet's final hop
    routed = hops > 0
    #: rows whose arrival is the previous row's departure (same packet)
    chained = np.zeros(total, dtype=bool)
    chained[1:] = hop_pid[1:] == hop_pid[:-1]

    # Free-flow lower bound: birth + (hops already crossed) * service.
    position = np.arange(total, dtype=np.int64) - np.repeat(first, hops)
    arrivals = np.repeat(births, hops) + position * service

    if max_sweeps is None:
        # Every sweep finalises at least the earliest not-yet-consistent
        # event, so total + 2 sweeps always suffice; real workloads
        # converge in O(max path length + queue chain length).
        max_sweeps = total + 2
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
            delivery[routed] = departures[last[routed]]
            return FixedPointResult(delivery, hops, sweep, sweep_rows)
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
    paths: Sequence[Sequence[Sequence[int]]],
    *,
    discipline: str = "fifo",
    service: float = 1.0,
    max_sweeps: Optional[int] = None,
) -> List[np.ndarray]:
    """One fixed-point solve for R independent replications.

    ``birth_times[r]`` / ``paths[r]`` describe replication *r*;
    offsetting its arc ids by ``r * num_arcs`` turns the batch into one
    system of R disjoint sub-networks, settled by a **single**
    vectorised iteration.  A replication's chained rows and dirty arcs
    never cross the offset boundary, so entry *r* of the result is
    bit-identical to ``simulate_paths_fixed_point(num_arcs,
    birth_times[r], paths[r], ...).delivery`` (a converged replication
    drops out of the remaining sweeps entirely — extra sweeps demanded
    by a slower-converging sibling never touch its rows).
    """
    reps = len(birth_times)
    if len(paths) != reps:
        raise ConfigurationError("birth_times and paths must be parallel")
    if reps == 0:
        return []
    births = np.concatenate([np.asarray(t, dtype=float) for t in birth_times])
    stacked: List[List[int]] = []
    rep_hops = np.empty(reps, dtype=np.int64)
    for r, rep_paths in enumerate(paths):
        base = r * num_arcs
        stacked.extend([arc + base for arc in path] for path in rep_paths)
        rep_hops[r] = sum(len(path) for path in rep_paths)
    rep_blocks = np.concatenate(([0], np.cumsum(rep_hops)))
    result = simulate_paths_fixed_point(
        num_arcs * reps,
        births,
        stacked,
        discipline=discipline,
        service=service,
        max_sweeps=max_sweeps,
        rep_blocks=rep_blocks,
    )
    counts = np.cumsum([len(t) for t in birth_times])[:-1]
    return np.split(result.delivery, counts)
