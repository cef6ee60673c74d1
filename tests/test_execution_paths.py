"""The range equivalence contract of the parallel runner.

Every replication runs through the scheme's batch runner, on a
contiguous range of the centrally derived seeds.  One spec, several
ways to cut its replications into ranges — one replication per task
(``wave_reps=1``, the reference), the whole stack in process
(``jobs=1``), and one range per worker across the pool (``jobs > 1``,
each worker drawing its own range's workloads) — plus the
bounded-memory chunked-horizon mode.  All of them must be
**bit-identical**: same pooled measurement, and byte-identical
per-replication cache cells (the cells are how sweeps compose across
sessions, so even a one-ulp drift would poison every downstream
pooled estimate).
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import ScenarioSpec, measure
from repro.runner.store import ResultsStore

#: one small cell per registered network (both native engines: the
#: level sweep on hypercube/butterfly, the fixed-point solver on
#: ring/torus), sized so the full matrix stays fast
CELLS = [
    ScenarioSpec(
        name="paths-hc", network="hypercube", scheme="greedy", d=4,
        rho=0.6, horizon=6.0, replications=5, base_seed=11,
        seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-bf", network="butterfly", scheme="greedy", d=3,
        rho=0.6, horizon=6.0, replications=5, base_seed=12,
        seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ring", network="ring", scheme="greedy", d=4,
        rho=0.5, horizon=5.0, replications=4, base_seed=13,
        seed_policy="spawn",
    ),
    ScenarioSpec(
        name="paths-torus", network="torus", scheme="greedy", d=2,
        rho=0.5, horizon=5.0, replications=4, base_seed=14,
        seed_policy="spawn",
    ),
]

#: the two pool widths the batch route is split across
WORKER_COUNTS = (2, 4)


def _cell_bytes(store, spec):
    return [
        store.replication_path_for(spec, k).read_bytes()
        for k in range(spec.replications)
    ]


def _cell_numbers(store, spec):
    """The numeric payload of each per-replication cell (a chunked
    spec's cell embeds its own spec dict — different content hash, by
    design — so byte equality only applies within one spec)."""
    import json

    out = []
    for k in range(spec.replications):
        cell = json.loads(store.replication_path_for(spec, k).read_text())
        out.append((cell["mean_delay"], cell["num_packets"], cell["metrics"]))
    return out


def _pooled(m):
    """A pooled measurement as JSON text: equal exactly when the
    measurements are, NaN fields (a static task's rho and lam)
    included."""
    import json

    from repro.runner.results import measurement_to_dict

    return json.dumps(measurement_to_dict(m), sort_keys=True)


def _assert_ranges_identical(spec, tmp_path, worker_counts):
    """One replication per task is the reference: the in-process stack
    and the pool at each worker count give the same pooled measurement
    and byte-identical per-replication cells."""
    seq_store = ResultsStore(tmp_path / "single")
    m_seq = _pooled(measure(spec, jobs=1, wave_reps=1, store=seq_store))
    reference = _cell_bytes(seq_store, spec)

    bat_store = ResultsStore(tmp_path / "bat")
    assert _pooled(measure(spec, jobs=1, store=bat_store)) == m_seq
    assert _cell_bytes(bat_store, spec) == reference

    for jobs in worker_counts:
        par_store = ResultsStore(tmp_path / f"par{jobs}")
        m_par = measure(spec, jobs=jobs, store=par_store)
        assert _pooled(m_par) == m_seq, f"jobs={jobs}"
        assert _cell_bytes(par_store, spec) == reference, f"jobs={jobs}"


class TestThreeRouteEquivalence:
    @pytest.mark.parametrize("spec", CELLS, ids=lambda s: s.network)
    def test_sequential_batched_parallel_identical(self, spec, tmp_path):
        """Pooled measurements equal and per-replication cache cells
        byte-identical across every range size and worker count."""
        _assert_ranges_identical(spec, tmp_path, WORKER_COUNTS)

    @pytest.mark.parametrize(
        "spec", [s for s in CELLS if s.network in ("hypercube", "butterfly")],
        ids=lambda s: s.network,
    )
    def test_chunked_horizon_identical(self, spec, tmp_path):
        """The chunked-horizon mode matches the one-shot sweep bit for
        bit, in process and across the pool (the chunk size must never
        leak into the numbers — only into the memory profile)."""
        seq_store = ResultsStore(tmp_path / "single")
        m_seq = measure(spec, jobs=1, wave_reps=1, store=seq_store)
        reference = _cell_numbers(seq_store, spec)
        for chunk in (1, 7, 50, 10**6):
            chunked = spec.replace(extra={"chunk_packets": chunk})
            chk_store = ResultsStore(tmp_path / f"chk{chunk}")
            m_chk = measure(chunked, jobs=1, store=chk_store)
            assert m_chk.replication_delays == m_seq.replication_delays
            assert _cell_numbers(chk_store, chunked) == reference
        chunked = spec.replace(extra={"chunk_packets": 13})
        m_par = measure(chunked, jobs=2)
        assert m_par.replication_delays == m_seq.replication_delays


#: path-engine cells: greedy forced onto the fixed-point engine, and the
#: cyclic schemes whose own batch runners draw scheme randomness from
#: the replication stream after the workload; all split across the
#: pool the same way at jobs > 1
EVENT_CELLS = [
    ScenarioSpec(
        name="paths-ev-greedy", network="hypercube", scheme="greedy",
        engine="fixedpoint", d=4, rho=0.6, horizon=6.0, replications=5,
        base_seed=21, seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ev-greedy-ps", network="hypercube", scheme="greedy",
        engine="fixedpoint", discipline="ps", d=4, rho=0.6, horizon=6.0,
        replications=4, base_seed=22, seed_policy="spawn",
    ),
]

CYCLIC_CELLS = [
    ScenarioSpec(
        name="paths-ev-random-order", network="hypercube",
        scheme="random_order", d=4, rho=0.6, horizon=6.0,
        replications=5, base_seed=23, seed_policy="sequential",
    ),
    ScenarioSpec(
        name="paths-ev-twophase", network="hypercube", scheme="twophase",
        d=4, rho=0.6, horizon=6.0, replications=4, base_seed=24,
        seed_policy="spawn",
    ),
]


class TestEventRouteEquivalence:
    """The route contract extended to the fixed-point path engine."""

    @pytest.mark.parametrize("spec", EVENT_CELLS, ids=lambda s: s.name)
    def test_event_engine_three_routes_identical(self, spec, tmp_path):
        """Greedy forced onto the fixed-point engine: one replication
        per task, the in-process stack and the pool (jobs=2) give
        byte-identical cells."""
        _assert_ranges_identical(spec, tmp_path, (2,))

    @pytest.mark.parametrize("spec", CYCLIC_CELLS, ids=lambda s: s.name)
    def test_cyclic_scheme_batched_routes_identical(self, spec, tmp_path):
        """Cyclic schemes: the stacked fixed-point solve, in process and
        split across the pool at jobs=2, reproduces the
        one-replication-per-task cells byte for byte."""
        _assert_ranges_identical(spec, tmp_path, (2,))


#: catalog cells whose schemes own their simulation loop: their derived
#: batch runner runs one prepared replication per seed, in process and
#: on the pool's contiguous seed ranges alike
SCHEME_OWNED_CELLS = [
    ("hypercube-deflection", {"horizon": 40.0}),
    ("hypercube-pipelined-batch", {"horizon": 40.0}),
    ("static-valiant-bitrev", {}),
    ("hypercube-slotted", {"horizon": 20.0}),
]


class TestSchemeOwnedLoopRanges:
    @pytest.mark.parametrize(
        "name,overrides", SCHEME_OWNED_CELLS, ids=[c[0] for c in SCHEME_OWNED_CELLS]
    )
    def test_scheme_owned_loop_ranges_identical(self, name, overrides, tmp_path):
        from repro.runner import get_scenario

        spec = get_scenario(name).replace(d=4, replications=3, **overrides)
        _assert_ranges_identical(spec, tmp_path, (2,))


def _one_shot(net, topology, spec, sample):
    from repro.sim.feedforward import simulate_levelled

    levels = net.greedy_levels(topology, spec)
    return simulate_levelled(levels, [sample], spec.discipline)[0][0]


def _chunked(net, topology, spec, sample, chunk):
    from repro.sim.feedforward import simulate_levelled

    levels = net.greedy_levels(topology, spec)
    return simulate_levelled(
        levels, [sample], spec.discipline, chunk_packets=chunk
    )[0][0]


class TestChunkedKernels:
    def test_hypercube_chunked_respects_dim_order(self):
        """Chunk composition commutes with a permuted global crossing
        order (the carry is per *arc*, and arcs are dimension-scoped)."""
        base = ScenarioSpec(
            name="chk-order", network="hypercube", scheme="greedy", d=6,
            rho=0.6, horizon=6.0, replications=2, base_seed=5,
            extra={"dim_order": (3, 0, 5, 1, 4, 2)},
        )
        m_one = measure(base, jobs=1, wave_reps=1)
        m_chk = measure(
            base.replace(extra={"dim_order": (3, 0, 5, 1, 4, 2),
                                "chunk_packets": 19}),
            jobs=1,
        )
        assert m_chk.replication_delays == m_one.replication_delays

    @staticmethod
    def _small_cell():
        from repro.sim.feedforward import HypercubeLevels
        from repro.topology.hypercube import Hypercube
        from repro.traffic.workload import HypercubeWorkload
        from repro.traffic.destinations import UniformLaw

        cube = Hypercube(4)
        sample = HypercubeWorkload(cube, 1.0, UniformLaw(4)).generate(
            2.0, np.random.default_rng(0)
        )
        return HypercubeLevels(cube), sample

    def test_chunked_rejects_nonpositive_chunk(self):
        from repro.sim.feedforward import simulate_levelled

        levels, sample = self._small_cell()
        for chunk in (0, -3):
            with pytest.raises(ConfigurationError, match="chunk_packets"):
                simulate_levelled(levels, [sample], chunk_packets=chunk)

    def test_nonpositive_chunk_refused_when_the_spec_is_built(self):
        """The kernel's refusal comes only once a spec runs (after any
        cache probe, on the server inside a pool worker); the engine's
        admissibility check refuses the spec itself."""
        for chunk in (0, -5):
            with pytest.raises(ConfigurationError, match="chunk_packets must be >= 1"):
                ScenarioSpec(name="x", d=3, rho=0.5, extra={"chunk_packets": chunk})

    def test_chunked_rejects_a_stack_an_arc_log_or_a_discipline(self):
        """The windows carry one replication's arc state and record no
        log, so a chunked stack or log is refused, not misread; an
        unknown discipline is refused on either route."""
        from repro.sim.feedforward import simulate_levelled

        levels, sample = self._small_cell()
        with pytest.raises(ConfigurationError, match="one sample"):
            simulate_levelled(levels, [sample, sample], chunk_packets=7)
        with pytest.raises(ConfigurationError, match="arc log"):
            simulate_levelled(
                levels, [sample], chunk_packets=7, record_arc_log=True
            )
        for chunk in (None, 7):
            with pytest.raises(ConfigurationError, match="discipline"):
                simulate_levelled(levels, [sample], "lifo", chunk_packets=chunk)

    def test_chunked_rejects_unchunkable_network(self):
        """Networks without a chunk-composable kernel reject the option
        at validation time (fixedpoint declares no such option)."""
        with pytest.raises(ConfigurationError, match="chunk_packets"):
            spec = ScenarioSpec(
                name="chk-ring", network="ring", scheme="greedy", d=4,
                rho=0.5, horizon=4.0, replications=1,
                extra={"chunk_packets": 16},
            )
            measure(spec, jobs=1)


class TestChunkedPS:
    """The PS chunk carry: in-service packets carried per arc across
    chunk boundaries, busy periods closed at the watermark.  The carry
    runs the one-shot sweep's PS kernel on the same per-arc state, so
    every chunk size reproduces the one-shot sweep bit for bit, on
    both chunk-composable networks."""

    CHUNKS = (1, 7, 50, 333, 10**6)

    @staticmethod
    def _one_replication(spec):
        from repro.rng import as_generator, replication_seeds

        net = spec.network_plugin
        topology = net.build_topology(spec)
        seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
        sample = net.build_workload(spec).generate(
            spec.horizon, as_generator(seeds[0])
        )
        return net, topology, sample

    @pytest.mark.parametrize("network,d", [("hypercube", 5), ("butterfly", 4)])
    def test_ps_chunk_sweep_matches_one_shot(self, network, d):
        spec = ScenarioSpec(
            name="chk-ps", network=network, scheme="greedy", d=d,
            rho=0.6, horizon=8.0, replications=1, base_seed=21,
            discipline="ps",
        )
        net, topology, sample = self._one_replication(spec)
        assert sample.num_packets > 100
        one_shot = _one_shot(net, topology, spec, sample)
        for chunk in self.CHUNKS:
            chunked = _chunked(net, topology, spec, sample, chunk)
            assert np.array_equal(chunked, one_shot), f"chunk={chunk}"

    def test_ps_chunk_sweep_with_permuted_dim_order(self):
        """The carry composes with a permuted global crossing order —
        the level-space bookkeeping must remap through it."""
        extra = {"dim_order": (3, 0, 4, 1, 2)}
        spec = ScenarioSpec(
            name="chk-ps-ord", network="hypercube", scheme="greedy", d=5,
            rho=0.6, horizon=8.0, replications=1, base_seed=22,
            discipline="ps", extra=extra,
        )
        net, topology, sample = self._one_replication(spec)
        one_shot = _one_shot(net, topology, spec, sample)
        for chunk in (1, 29, 10**6):
            chunked = _chunked(net, topology, spec, sample, chunk)
            assert np.array_equal(chunked, one_shot), f"chunk={chunk}"

    def test_ps_chunked_accepted_end_to_end(self):
        """The engine no longer rejects chunk_packets + PS: a chunked
        PS measurement runs and agrees with the one-shot PS run."""
        spec = ScenarioSpec(
            name="chk-ps-e2e", network="hypercube", scheme="greedy", d=4,
            rho=0.5, horizon=6.0, replications=3, base_seed=23,
            discipline="ps",
        )
        m_one = measure(spec, jobs=1, wave_reps=1)
        m_chk = measure(spec.replace(extra={"chunk_packets": 16}), jobs=1)
        assert m_chk.replication_delays == m_one.replication_delays


class TestRepBlockedConvergence:
    """The fixed-point solver's rep-blocked convergence (PS sweeps): a
    replication that reaches its fixed point drops out of the remaining
    sweeps (observable via FixedPointResult.sweep_rows) while the final
    sample paths stay bit-identical to the standalone solves."""

    @staticmethod
    def _mixed_reps():
        """Two replications with deliberately heterogeneous convergence:
        a single-hop fast one and a long shared-arc chain."""
        rng = np.random.default_rng(17)
        num_arcs = 10
        fast = (
            np.sort(rng.uniform(0.0, 5.0, 4)),
            [[int(rng.integers(0, num_arcs))] for _ in range(4)],
        )
        slow_paths = [
            [int((s + k) % num_arcs) for k in range(int(rng.integers(4, 9)))]
            for s in rng.integers(0, num_arcs, 80)
        ]
        slow = (np.sort(rng.uniform(0.0, 10.0, 80)), slow_paths)
        return num_arcs, [fast, slow]

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_batch_bit_identical_with_fewer_sweep_rows(self, discipline):
        from repro.sim.fixedpoint import (
            simulate_paths_fixed_point,
            simulate_paths_fixed_point_batch,
        )

        num_arcs, reps = self._mixed_reps()
        solo = [
            simulate_paths_fixed_point(
                num_arcs, births, paths, discipline=discipline
            )
            for births, paths in reps
        ]
        if discipline == "ps":  # FIFO makes one pass, with no sweeps
            assert solo[0].sweeps < solo[1].sweeps  # genuinely heterogeneous
        batch = simulate_paths_fixed_point_batch(
            num_arcs,
            [r[0] for r in reps],
            [r[1] for r in reps],
            discipline=discipline,
        )
        for r in range(len(reps)):
            assert np.array_equal(batch[r], solo[r].delivery)

    def test_sweep_rows_counts_only_active_blocks(self):
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        num_arcs, reps = self._mixed_reps()
        births = np.concatenate([r[0] for r in reps])
        stacked = [list(p) for p in reps[0][1]] + [
            [a + num_arcs for a in p] for p in reps[1][1]
        ]
        total = sum(len(p) for p in stacked)
        rep_blocks = np.array(
            [0, sum(len(p) for p in reps[0][1]), total], dtype=np.int64
        )
        res = simulate_paths_fixed_point(
            num_arcs * 2, births, stacked, discipline="ps",
            rep_blocks=rep_blocks,
        )
        # the fast block converged early and was dropped: strictly
        # fewer rows swept than sweeps * total
        assert res.sweep_rows < res.sweeps * total
        # and without rep_blocks every sweep scans every row
        flat = simulate_paths_fixed_point(
            num_arcs * 2, births, stacked, discipline="ps"
        )
        assert flat.sweep_rows == flat.sweeps * total
        assert np.array_equal(flat.delivery, res.delivery)


class TestBoundedMemory:
    def test_long_horizon_peak_is_chunk_bounded_not_horizon_bounded(self):
        """On a long-horizon cell the one-shot sweep's transient
        footprint scales with the horizon; the chunked sweep's scales
        with the chunk + the topology.  The gap is the whole point of
        the mode."""
        spec = ScenarioSpec(
            name="mem-long", network="hypercube", scheme="greedy", d=8,
            rho=0.7, horizon=150.0, replications=1, base_seed=2,
        )
        net = spec.network_plugin
        topology = net.build_topology(spec)
        from repro.rng import as_generator, replication_seeds

        seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
        sample = net.build_workload(spec).generate(
            spec.horizon, as_generator(seeds[0])
        )
        tracemalloc.start()
        one_shot = _one_shot(net, topology, spec, sample)
        _, peak_one = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        chunked = _chunked(net, topology, spec, sample, 2048)
        _, peak_chunk = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(one_shot, chunked)
        assert peak_chunk < peak_one / 2

    def test_d20_cell_completes_in_carry_bounded_memory(self):
        """A d=20 hypercube cell (1M nodes, 21M arcs) streams through
        the chunked kernel with peak *additional* memory bounded by the
        dense per-arc carry plus a chunk-sized working set — not by the
        horizon — and stays bit-identical to the one-shot sweep."""
        spec = ScenarioSpec(
            name="mem-d20", network="hypercube", scheme="greedy", d=20,
            rho=0.6, horizon=0.05, replications=1, base_seed=3,
        )
        net = spec.network_plugin
        topology = net.build_topology(spec)
        from repro.rng import as_generator, replication_seeds

        seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
        sample = net.build_workload(spec).generate(
            spec.horizon, as_generator(seeds[0])
        )
        assert sample.num_packets > 20_000  # a real cell, not a toy
        chunk = 8192
        tracemalloc.start()
        chunked = _chunked(net, topology, spec, sample, chunk)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # dense carry: int64 counts + float64 running max per arc
        carry_bytes = topology.num_arcs * 16
        # plus a chunk-scaled transient working set and ~a few hundred
        # bytes of in-flight bookkeeping per packet (delivery/hops/
        # entry plus the parked (pid, arrival) rows) — crucially, NOT
        # the one-shot sweep's multiple-arrays-per-(packet, level)
        # footprint, which is what the horizon multiplies
        budget = carry_bytes + 64 * 8 * chunk + 400 * sample.num_packets
        assert peak < budget
        one_shot = _one_shot(net, topology, spec, sample)
        assert np.array_equal(one_shot, chunked)


class TestRunnerResolution:
    def test_batch_runner_resolved_once_per_spec(self, monkeypatch):
        """measure_many must resolve the scheme's batch runner once per
        spec — never again at task-execution time in the same process."""
        from repro.plugins.greedy import GreedyPlugin

        calls = []
        original = GreedyPlugin.batch_runner

        def counting(self, spec):
            calls.append(spec.name)
            return original(self, spec)

        monkeypatch.setattr(GreedyPlugin, "batch_runner", counting)
        spec = CELLS[0]
        measure(spec, jobs=1, wave_reps=1)  # one task per replication
        assert calls == [spec.name]

    def test_wave_reps_below_one_is_refused(self):
        """wave_reps=1 is one replication per task, so 0 (or less) must
        not quietly mean "no cap": it is refused before anything runs."""
        for wave_reps in (0, -2):
            with pytest.raises(ConfigurationError, match="wave_reps"):
                measure(CELLS[0], wave_reps=wave_reps)

    def test_pool_route_parent_holds_seeds_not_workloads(self):
        """At jobs > 1 only seeds cross the pool: each worker draws its
        own range's workloads, so the parent's peak stays below three
        replications' workloads (times, origins and destinations: 24
        bytes a packet) however many replications the spec has."""
        spec = ScenarioSpec(
            name="pool-memory", network="hypercube", scheme="greedy", d=8,
            rho=0.7, horizon=40.0, replications=64, base_seed=31,
        )
        # warm-up: module imports and lazy set-up are not the route's
        measure(spec.replace(horizon=2.0, replications=2), jobs=1)
        tracemalloc.start()
        try:
            m = measure(spec, jobs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workload_bytes = 24 * m.num_packets / spec.replications
        assert peak < 3 * workload_bytes
