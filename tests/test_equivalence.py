"""Cross-engine and physical-vs-network-Q equivalence (integration).

The strongest correctness evidence in the suite: independent
implementations must produce the *same sample paths*:

* feed-forward (vectorised Lindley) vs the fixed-point path solver,
  FIFO & PS;
* the physical hypercube vs network Q fed with the same packets
  (§3.1's equivalence, Lemma 4 coupling).
"""

import numpy as np
import pytest

from repro.core.qnetwork import HypercubeQSpec, hypercube_external_from_sample
from repro.sim.eventsim import (
    FlatPaths,
    butterfly_packet_paths,
    hypercube_arcs_flat,
    hypercube_dims_flat,
    hypercube_paths,
)
from repro.sim.feedforward import (
    ButterflyLevels,
    HypercubeLevels,
    simulate_hypercube_greedy,
    simulate_levelled,
    simulate_markovian,
)
from repro.sim.fixedpoint import (
    simulate_paths_fixed_point,
    simulate_paths_fixed_point_batch,
)
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.traffic.destinations import BernoulliFlipLaw
from repro.traffic.workload import HypercubeWorkload


def _workload_sample(d, lam, p, horizon, seed):
    cube = Hypercube(d)
    wl = HypercubeWorkload(cube, lam, BernoulliFlipLaw(d, p))
    return cube, wl.generate(horizon, rng=seed)


def _assert_level_sweeps_match_events(d, samples, discipline):
    """Every level map and route of the level sweep against the
    fixed-point path solver run over the same packets' greedy paths.

    Maps: the hypercube in increasing and in a permuted dimension
    order, and the butterfly (a d-bit sample is also a butterfly row
    workload).  Routes: the first sample alone, all samples stacked in
    one sweep, and the first sample chunked at 1, 7 and infinitely many
    packets.  Deliveries agree bit for bit.
    """
    cube, bf = Hypercube(d), Butterfly(d)
    order = list(range(1, d, 2)) + list(range(0, d, 2))

    def permuted_paths(s):
        # each packet's differing dimensions, crossed in ``order``
        dims, start = hypercube_dims_flat(d, s.origins, s.destinations)
        pid = np.repeat(np.arange(s.num_packets), np.diff(start))
        rank = np.argsort(order)[dims]
        dims = dims[np.lexsort((rank, pid))]
        return FlatPaths(
            hypercube_arcs_flat(cube.num_nodes, s.origins, dims, start), start
        )

    maps = [
        ("hypercube", HypercubeLevels(cube),
         lambda s: hypercube_paths(d, s.origins, s.destinations)),
        ("hypercube, dim_order", HypercubeLevels(cube, order), permuted_paths),
        ("butterfly", ButterflyLevels(bf),
         lambda s: butterfly_packet_paths(bf, s)),
    ]
    for label, levels, paths in maps:
        refs = [
            simulate_paths_fixed_point(
                levels.num_arcs, s.times, paths(s), discipline=discipline
            ).delivery
            for s in samples
        ]
        routes = {
            "R=1": simulate_levelled(levels, samples[:1], discipline)[0],
            f"stacked R={len(samples)}": simulate_levelled(
                levels, samples, discipline
            )[0],
        }
        for chunk in (1, 7, 10**9):
            routes[f"chunk={chunk}"] = simulate_levelled(
                levels, samples[:1], discipline, chunk_packets=chunk
            )[0]
        for route, deliveries in routes.items():
            for ref, got in zip(refs, deliveries):
                assert np.array_equal(
                    got.view(np.int64), ref.view(np.int64)
                ), f"{label}, {route}"


class TestEngineEquivalence:
    """The level sweep against the fixed-point path solver, FIFO and
    PS, bit for bit, over every level map and every route (one-shot,
    stacked, chunked)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fifo_sample_paths_identical(self, seed):
        samples = [
            _workload_sample(4, 1.4, 0.5, 120.0, s)[1]
            for s in (seed, seed + 10, seed + 20)
        ]
        _assert_level_sweeps_match_events(4, samples, "fifo")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_ps_sample_paths_identical(self, seed):
        samples = [
            _workload_sample(3, 1.2, 0.5, 80.0, s)[1]
            for s in (seed, seed + 10, seed + 20)
        ]
        _assert_level_sweeps_match_events(3, samples, "ps")

    def test_fifo_with_slotted_ties(self):
        # heavy tie traffic: all births at integer slots
        cube = Hypercube(3)
        from repro.traffic.workload import SlottedHypercubeWorkload

        wl = SlottedHypercubeWorkload(
            cube, 1.2, BernoulliFlipLaw(3, 0.5), tau=0.5
        )
        samples = [wl.generate(60.0, rng=seed) for seed in (9, 19, 29)]
        _assert_level_sweeps_match_events(3, samples, "fifo")


class TestBatchedEventMatchesFeedForward:
    """The replication-batched fixed-point path solver against the
    level sweep.

    Stacking R replications into one arc-offset solve must not move
    any delivery epoch: each replication agrees with the independent
    feed-forward sweep bit for bit (the engine contract the batched
    route is validated against).
    """

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_batched_calendar_matches_level_sweep(self, discipline):
        cube = Hypercube(4)
        samples = [
            _workload_sample(4, 1.4, 0.5, 60.0, seed)[1]
            for seed in (21, 22, 23, 24)
        ]
        deliveries = simulate_paths_fixed_point_batch(
            cube.num_arcs,
            [s.times for s in samples],
            [hypercube_paths(4, s.origins, s.destinations) for s in samples],
            discipline=discipline,
        )
        for s, delivery in zip(samples, deliveries):
            ff = simulate_hypercube_greedy(cube, s, discipline=discipline)
            assert np.array_equal(
                ff.delivery.view(np.int64), delivery.view(np.int64)
            )


class TestPhysicalVsNetworkQ:
    """§3.1: the loaded hypercube *is* network Q.

    Feeding Q the physical packets' entry arcs and replaying the
    physical packets' actual dimension choices as 'routing decisions'
    must reproduce the physical delivery times exactly.
    """

    def _decisions_from_physical(self, cube, sample, res):
        """Extract per-arc decision sequences from the physical run."""
        log = res.arc_log
        n_nodes = cube.num_nodes
        decisions = {}
        # per packet, the sequence of arcs crossed, in level order
        by_pid_arcs = {}
        by_pid_tout = {}
        order = np.lexsort((log.t_in, log.pid))
        for idx in order:
            pid = int(log.pid[idx])
            by_pid_arcs.setdefault(pid, []).append(int(log.arc[idx]))
        # for each arc, customers in service order; decision = next arc
        from collections import defaultdict

        served = defaultdict(list)  # arc -> [(t_out, pid, next_arc)]
        for pid, arcs in by_pid_arcs.items():
            for k, arc in enumerate(arcs):
                nxt = arcs[k + 1] if k + 1 < len(arcs) else -1
                served[arc].append((pid, nxt))
        # service order at each arc == (t_in, pid) order
        for arc in served:
            m = log.arc == arc
            srv_order = np.lexsort((log.pid[m], log.t_in[m]))
            pid_sorted = log.pid[m][srv_order]
            nxt_of = dict(served[arc])
            decisions[int(arc)] = np.array(
                [nxt_of[int(q)] for q in pid_sorted], dtype=np.int64
            )
        return decisions

    def test_replayed_q_matches_physical(self):
        cube, sample = _workload_sample(3, 1.0, 0.5, 60.0, 11)
        res = simulate_hypercube_greedy(cube, sample, record_arc_log=True)
        spec = HypercubeQSpec(cube, 0.5)
        times, arcs, pids = hypercube_external_from_sample(cube, sample)
        decisions = self._decisions_from_physical(cube, sample, res)
        qres = simulate_markovian(spec, times, arcs, decisions=decisions)
        np.testing.assert_allclose(
            qres.exit_times, res.delivery[pids], atol=1e-9
        )

    def test_q_statistics_match_physical(self):
        # Without coupling: network-Q with Lemma-4 random routing gives
        # the same delay distribution as the physical cube (law level).
        cube, sample = _workload_sample(4, 1.4, 0.5, 600.0, 13)
        res = simulate_hypercube_greedy(cube, sample)
        phys_delays = res.delays()
        moving = (sample.origins ^ sample.destinations) != 0
        phys_mean = phys_delays[moving].mean()

        spec = HypercubeQSpec(cube, 0.5)
        times, arcs = spec.sample_external_arrivals(1.4, 600.0, rng=14)
        qres = simulate_markovian(spec, times, arcs, rng=15)
        q_mean = (qres.exit_times - times).mean()
        assert q_mean == pytest.approx(phys_mean, rel=0.1)
