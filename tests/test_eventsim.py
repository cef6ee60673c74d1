"""Tests for explicit arc paths and the solver that runs them.

Paths: the packed layout and the vectorised hypercube builder.  The
solver: :func:`repro.sim.fixedpoint.simulate_paths_fixed_point` and its
batch, against a strict-order heap and per-arc server oracles, and the
older ``simulate_paths_event_driven`` names, which return the same
results.
"""

import heapq
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError, TopologyError
from repro.sim.eventsim import (
    FlatPaths,
    flatten_paths,
    hypercube_arcs_flat,
    hypercube_paths,
    simulate_paths_event_driven,
    simulate_paths_event_driven_batch,
)
from repro.sim.fixedpoint import (
    simulate_paths_fixed_point,
    simulate_paths_fixed_point_batch,
)
from repro.sim.lindley import fifo_departure_times
from repro.sim.servers import ps_departure_times
from repro.topology.hypercube import Hypercube
from repro.topology.paths import path_arcs


def _random_system(rng, num_arcs=12, n=160, max_hops=5, span=40.0):
    """A random cyclic-path system: births plus arbitrary arc paths."""
    births = np.sort(rng.uniform(0.0, span, size=n))
    hops = rng.integers(0, max_hops + 1, size=n)
    paths = [list(rng.integers(0, num_arcs, size=h)) for h in hops]
    return births, paths


class TestEventDrivenFifo:
    def test_single_server_queue(self):
        # 3 packets through one arc
        res = simulate_paths_fixed_point(
            1, np.array([0.0, 0.0, 5.0]), [[0], [0], [0]]
        )
        np.testing.assert_allclose(res.delivery, [1.0, 2.0, 6.0])

    def test_tandem_line(self):
        # arc 0 then arc 1: pipeline
        res = simulate_paths_fixed_point(
            2, np.array([0.0, 0.0]), [[0, 1], [0, 1]]
        )
        np.testing.assert_allclose(np.sort(res.delivery), [2.0, 3.0])

    def test_empty_path_delivered_at_birth(self):
        res = simulate_paths_fixed_point(1, np.array([4.2]), [[]])
        assert res.delivery[0] == pytest.approx(4.2)

    def test_tie_priority_by_pid(self):
        # both arrive at t=1 at arc 0: pid 0 served first
        res = simulate_paths_fixed_point(1, np.array([1.0, 1.0]), [[0], [0]])
        np.testing.assert_allclose(res.delivery, [2.0, 3.0])

    def test_cyclic_server_graph_ok(self):
        # packet A: arc0 -> arc1 ; packet B: arc1 -> arc0 (not levelled)
        res = simulate_paths_fixed_point(
            2, np.array([0.0, 0.0]), [[0, 1], [1, 0]]
        )
        np.testing.assert_allclose(res.delivery, [2.0, 2.0])

    def test_arc_log(self):
        res = simulate_paths_fixed_point(
            2, np.array([0.0]), [[0, 1]], record_arc_log=True
        )
        assert res.arc_log.num_hops == 2
        np.testing.assert_allclose(res.arc_log.t_in, [0.0, 1.0])
        np.testing.assert_allclose(res.arc_log.t_out, [1.0, 2.0])

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            simulate_paths_fixed_point(1, np.array([0.0]), [[0], [0]])
        with pytest.raises(ConfigurationError):
            simulate_paths_fixed_point(
                1, np.array([0.0]), [[0]], discipline="bad"
            )
        for service in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigurationError):
                simulate_paths_fixed_point(
                    1, np.array([0.0]), [[0]], service=service
                )

    def test_rejects_times_where_service_vanishes(self):
        for t in (1e17, np.inf):
            with pytest.raises(SimulationError):
                simulate_paths_fixed_point(1, np.array([t]), [[0]])

    def test_custom_service_time(self):
        res = simulate_paths_fixed_point(
            1, np.array([0.0, 0.0]), [[0], [0]], service=2.0
        )
        np.testing.assert_allclose(res.delivery, [2.0, 4.0])


class TestEventDrivenPS:
    def test_ps_sharing_pair(self):
        res = simulate_paths_fixed_point(
            1, np.array([0.0, 0.5]), [[0], [0]], discipline="ps"
        )
        np.testing.assert_allclose(res.delivery, [1.5, 2.0])

    def test_ps_tandem(self):
        # lone packet: PS == FIFO
        res = simulate_paths_fixed_point(
            2, np.array([0.0]), [[0, 1]], discipline="ps"
        )
        assert res.delivery[0] == pytest.approx(2.0)

    def test_ps_triple_share(self):
        res = simulate_paths_fixed_point(
            1, np.zeros(3), [[0], [0], [0]], discipline="ps"
        )
        np.testing.assert_allclose(res.delivery, [3.0, 3.0, 3.0])


def _heap_fifo(num_arcs, births, paths, service=1.0):
    """FIFO delivery epochs and arc log in strict event order on a heap.

    Events are ``(time, kind, id)``: completions (kind 0, id = arc)
    fire before joins (kind 1, id = pid) at equal times, and joins in
    pid order.  Each arc holds a FIFO queue whose head is in service.
    """
    delivery = np.asarray(births, dtype=float).copy()
    join_t = delivery.tolist()
    hop = [0] * len(paths)
    queues = [deque() for _ in range(num_arcs)]
    heap = [(join_t[p], 1, p) for p in range(len(paths)) if len(paths[p])]
    heapq.heapify(heap)
    rows = []
    while heap:
        t, kind, i = heapq.heappop(heap)
        if kind:
            q = queues[paths[i][hop[i]]]
            q.append(i)
            if len(q) == 1:
                heapq.heappush(heap, (t + service, 0, paths[i][hop[i]]))
            continue
        p = queues[i].popleft()
        rows.append((p, i, join_t[p], t))
        hop[p] += 1
        if hop[p] == len(paths[p]):
            delivery[p] = t
        else:
            join_t[p] = t
            heapq.heappush(heap, (t, 1, p))
        if queues[i]:
            heapq.heappush(heap, (t + service, 0, i))
    pid, arc, t_in, t_out = (np.array(c) for c in zip(*rows))
    return delivery, (pid, arc, t_in, t_out)


class TestCoreModes:
    """The FIFO pass and a strict-order heap agree bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_heap_and_window_cores_agree_exactly(self, seed):
        rng = np.random.default_rng(seed)
        births, paths = _random_system(rng)
        win = simulate_paths_fixed_point(
            12, births, paths, record_arc_log=True
        )
        delivery, heap_log = _heap_fifo(12, births, paths)
        assert np.array_equal(win.delivery, delivery)
        # the service history must agree hop for hop, not just at exit
        log = win.arc_log
        order_a = np.lexsort((log.arc, log.pid, log.t_in))
        order_b = np.lexsort((heap_log[1], heap_log[0], heap_log[2]))
        got = (log.pid, log.arc, log.t_in, log.t_out)
        for col, a, b in zip(("pid", "arc", "t_in", "t_out"), got, heap_log):
            assert np.array_equal(a[order_a], b[order_b]), col


def _oracle_fifo(births, paths, service):
    """FIFO delivery epochs and arc log by iterated per-arc recursions.

    Each arc serves its joins in (time, pid) order; a packet joins hop
    k + 1 when it departs hop k.  Starting from every hop joined at
    birth, resolve every arc with the closed-form Lindley recursion
    until the network's sample path stops changing.  Rows are
    packet-major.
    """
    hops = np.array([len(p) for p in paths], np.int64)
    ends = np.cumsum(hops)
    pid = np.repeat(np.arange(len(paths)), hops)
    arc = np.array([a for p in paths for a in p], np.int64)
    later = np.ones(pid.shape[0], bool)
    later[(ends - hops)[hops > 0]] = False
    t_in = births[pid]
    t_out = np.empty_like(t_in)
    for _ in range(pid.shape[0] + 2):
        for a in np.unique(arc):
            rows = np.flatnonzero(arc == a)
            rows = rows[np.lexsort((pid[rows], t_in[rows]))]
            t_out[rows] = fifo_departure_times(t_in[rows], service)
        nxt = births[pid]
        nxt[later] = t_out[np.flatnonzero(later) - 1]
        if np.array_equal(nxt, t_in):
            break
        t_in = nxt
    else:  # pragma: no cover
        raise AssertionError("the oracle found no fixed point")
    delivery = births.copy()
    delivery[hops > 0] = t_out[ends[hops > 0] - 1]
    return delivery, (pid, arc, t_in, t_out)


def _cyclic_system(seed, num_arcs, n, span, service, ties):
    """Cyclic paths over few (hot) or many arcs, tied or sparse births."""
    rng = np.random.default_rng(seed)
    births = rng.uniform(0.0, span, size=n)
    if ties:
        births = np.round(births * 4.0) / 4.0  # quarter-unit grid
    hops = rng.integers(0, 7, size=n)  # empty paths included
    paths = [list(rng.integers(0, num_arcs, size=h)) for h in hops]
    return num_arcs, births, paths, service


_CYCLIC_SYSTEMS = st.builds(
    _cyclic_system,
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 12, 40]),
    st.integers(0, 120),
    st.sampled_from([4.0, 40.0, 2000.0]),
    st.sampled_from([0.5, 1.0, 1.7, 3.0]),
    st.booleans(),
)


class TestFifoOracle:
    """The FIFO pass reproduces per-arc Lindley recursions bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(system=_CYCLIC_SYSTEMS)
    @example(system=_cyclic_system(0, 3, 120, 40.0, 1.7, True))  # hot, tied
    @example(system=_cyclic_system(1, 12, 120, 4.0, 0.5, True))  # dense
    @example(system=_cyclic_system(2, 40, 60, 2000.0, 3.0, False))  # sparse
    def test_matches_iterated_lindley_oracle(self, system):
        num_arcs, births, paths, service = system
        res = simulate_paths_fixed_point(
            num_arcs, births, paths, service=service, record_arc_log=True
        )
        delivery, rows = _oracle_fifo(births, paths, service)
        assert np.array_equal(
            res.delivery.view(np.int64), delivery.view(np.int64)
        )
        log = res.arc_log
        # a packet's joins rise hop by hop: (pid, t_in) is packet-major
        order = np.lexsort((log.t_in, log.pid))
        got = (log.pid, log.arc, log.t_in, log.t_out)
        for col, want in zip(got, rows):
            assert np.array_equal(
                col[order].view(np.int64), want.view(np.int64)
            )


class TestPsOracle:
    """PS arc logs are consistent sample paths: each hop joins when the
    one before it departs, and every arc's departures are
    ``ps_departure_times`` of its logged arrivals, bit for bit.  The PS
    twin of :class:`TestFifoOracle`, on the same systems, paths that
    take one arc on consecutive hops included."""

    @settings(max_examples=60, deadline=None)
    @given(system=_CYCLIC_SYSTEMS)
    @example(system=_cyclic_system(0, 3, 120, 40.0, 1.7, True))  # hot, tied
    @example(system=_cyclic_system(1, 12, 120, 4.0, 0.5, True))  # dense
    # one arc, so every later hop rejoins it: 25 sweeps for 16 hops
    @example(system=_cyclic_system(0, 1, 4, 4.0, 0.5, False))
    def test_arc_logs_match_ps_departure_times(self, system):
        num_arcs, births, paths, service = system
        res = simulate_paths_fixed_point(
            num_arcs, births, paths, discipline="ps", service=service,
            record_arc_log=True,
        )
        log = res.arc_log
        # a packet's joins rise hop by hop: (pid, t_in) is packet-major
        order = np.lexsort((log.t_in, log.pid))
        pid, arc, t_in, t_out = (
            col[order] for col in (log.pid, log.arc, log.t_in, log.t_out)
        )
        fp = flatten_paths(paths)
        routed = fp.hops() > 0
        assert np.array_equal(arc, fp.flat)
        joins = np.empty_like(t_in)
        joins[1:] = t_out[:-1]
        joins[fp.start[:-1][routed]] = births[routed]
        assert np.array_equal(t_in.view(np.int64), joins.view(np.int64))
        delivery = births.copy()
        delivery[routed] = t_out[fp.start[1:][routed] - 1]
        assert np.array_equal(
            res.delivery.view(np.int64), delivery.view(np.int64)
        )
        for a in np.unique(arc):
            rows = np.flatnonzero(arc == a)
            rows = rows[np.lexsort((pid[rows], t_in[rows]))]
            want = ps_departure_times(t_in[rows], service)
            assert np.array_equal(
                t_out[rows].view(np.int64), want.view(np.int64)
            ), f"arc {a}"


class TestBatchedCalendar:
    """R replications as one arc-offset solve: per-replication
    results bit-identical to the sequential runs."""

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_batch_bit_identical_to_sequential(self, discipline):
        rng = np.random.default_rng(7)
        reps = [_random_system(rng) for _ in range(4)]
        batched = simulate_paths_fixed_point_batch(
            12,
            [b for b, _ in reps],
            [p for _, p in reps],
            discipline=discipline,
        )
        for (births, paths), delivery in zip(reps, batched):
            solo = simulate_paths_fixed_point(
                12, births, paths, discipline=discipline
            )
            assert np.array_equal(solo.delivery, delivery)

    def test_empty_batch(self):
        assert simulate_paths_fixed_point_batch(3, [], []) == []

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            simulate_paths_fixed_point_batch(3, [np.zeros(1)], [])


class TestFlatPaths:
    def test_flatten_roundtrip(self):
        paths = [[0, 1], [], [2]]
        fp = flatten_paths(paths)
        assert fp.num_packets == 3
        assert [list(fp[i]) for i in range(3)] == paths
        assert [list(p) for p in fp] == paths
        assert list(fp[-1]) == paths[-1]
        with pytest.raises(IndexError):
            fp[3]
        assert list(fp.hops()) == [2, 0, 1]
        assert flatten_paths(fp) is fp

    def test_flat_paths_accepted_directly(self):
        fp = FlatPaths(
            np.array([0, 0], np.int64), np.array([0, 1, 2], np.int64)
        )
        res = simulate_paths_fixed_point(1, np.array([0.0, 0.0]), fp)
        np.testing.assert_allclose(res.delivery, [1.0, 2.0])


class TestArcLogPreallocation:
    """The arc log is preallocated to exactly one row per hop — no
    growing Python lists, no over-allocation."""

    def test_exact_length_and_dtypes(self):
        rng = np.random.default_rng(3)
        births, paths = _random_system(rng)
        total = sum(len(p) for p in paths)
        res = simulate_paths_fixed_point(
            12, births, paths, record_arc_log=True
        )
        log = res.arc_log
        assert log.num_hops == total
        for col, dtype in (
            ("pid", np.int64),
            ("arc", np.int64),
            ("t_in", np.float64),
            ("t_out", np.float64),
        ):
            arr = getattr(log, col)
            assert arr.shape == (total,)
            assert arr.dtype == dtype

    def test_log_memory_overhead_is_bounded(self):
        """Recording the log must cost O(total hops) extra memory —
        the four columns plus bounded slack, not a per-event pile of
        Python objects."""
        rng = np.random.default_rng(5)
        births, paths = _random_system(rng, num_arcs=24, n=4000, span=400.0)
        total = sum(len(p) for p in paths)
        simulate_paths_fixed_point(24, births, paths)  # warm caches
        tracemalloc.start()
        simulate_paths_fixed_point(24, births, paths)
        _, peak_plain = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        simulate_paths_fixed_point(24, births, paths, record_arc_log=True)
        _, peak_logged = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        columns = 4 * 8 * total  # two int64 + two float64 rows per hop
        assert peak_logged - peak_plain <= 3 * columns + (1 << 16)


class TestPathConstruction:
    def test_canonical_paths(self, cube3):
        paths = hypercube_paths(3, [0], [0b101])
        assert [list(p) for p in paths] == [
            [cube3.arc_index(0, 0), cube3.arc_index(1, 2)]
        ]

    def test_custom_orders(self, cube3):
        # any per-packet crossing order: here dimension 2, then 0
        arcs = hypercube_arcs_flat(8, [0], np.array([2, 0]), np.array([0, 2]))
        assert list(arcs) == [cube3.arc_index(0, 2), cube3.arc_index(4, 0)]
        assert list(arcs) == path_arcs(cube3, 0, 0b101, [2, 0])

    def test_rejects_bad_order(self, cube3):
        with pytest.raises(TopologyError):
            path_arcs(cube3, 0, 0b101, [0, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 6),
        legs=st.sampled_from([1, 2]),
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, legs=1, n=3, seed=0)
    @example(d=1, legs=2, n=4, seed=1)
    def test_builder_matches_per_packet_canonical_paths(self, d, legs, n, seed):
        """Two stops give the greedy paths, three the two-phase ones:
        each packet's legs are its canonical paths, concatenated.  Small
        address spaces make stops repeat, so zero-hop legs and packets
        appear."""
        cube = Hypercube(d)
        stops = np.random.default_rng(seed).integers(0, 1 << d, size=(legs + 1, n))
        paths = hypercube_paths(d, *stops)
        assert paths.num_packets == n
        for i in range(n):
            want = []
            for k in range(legs):
                want += cube.canonical_path_arcs(int(stops[k, i]), int(stops[k + 1, i]))
            assert list(paths[i]) == want


class TestOlderNames:
    """``simulate_paths_event_driven`` and its batch return what the
    fixed-point entry points return, bit for bit, arc log included."""

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_wrappers_return_the_fixed_point_results(self, discipline):
        rng = np.random.default_rng(11)
        reps = [_random_system(rng) for _ in range(3)]
        births, paths = reps[0]
        old = simulate_paths_event_driven(
            12, births, paths, discipline=discipline, record_arc_log=True
        )
        new = simulate_paths_fixed_point(
            12, births, paths, discipline=discipline, record_arc_log=True
        )
        assert np.array_equal(old.delivery.view(np.int64), new.delivery.view(np.int64))
        assert np.array_equal(old.hops, new.hops)
        assert (old.sweeps, old.sweep_rows) == (new.sweeps, new.sweep_rows)
        for col in ("pid", "arc", "t_in", "t_out"):
            a, b = getattr(old.arc_log, col), getattr(new.arc_log, col)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), col
        old_batch = simulate_paths_event_driven_batch(
            12, [b for b, _ in reps], [p for _, p in reps], discipline=discipline
        )
        new_batch = simulate_paths_fixed_point_batch(
            12, [b for b, _ in reps], [p for _, p in reps], discipline=discipline
        )
        assert len(old_batch) == len(new_batch) == 3
        for a, b in zip(old_batch, new_batch):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
