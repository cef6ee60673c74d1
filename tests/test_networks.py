"""Tests for the capability-declaring network-plugin API and registry.

Covers the registry (decorator registration, aliases, entry points),
the topology conformance contract every registered network must honor
(dense level-major arc ids, ``arc(i)`` round trip, ``level_slice``
partition), the load-law round trip, the greedy hop-count
distribution, the alias-normalisation cache guarantee, the
fixed-point engine's sample paths checked arc by arc against the
scalar servers (and against the feed-forward engine on levelled
networks), and a grep-style guard that no ``network ==`` literal
survives outside ``src/repro/networks/``.
"""

import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.networks import (
    NetworkPlugin,
    all_network_names,
    available_networks,
    canonical_network_name,
    get_network,
    iter_networks,
    register_network,
    unregister_network,
)
from repro.networks import registry as network_registry
from repro.runner import ScenarioSpec, get_scenario, measure
from repro.sim.run_spec import run_spec
from repro.traffic.workload import TrafficSample

ALL_BUILTINS = {"hypercube", "butterfly", "ring", "torus"}

#: a small valid greedy operating point per network (d chosen per
#: network so every topology stays tiny)
CONFORMANCE_D = {"hypercube": 3, "butterfly": 3, "ring": 3, "torus": 2}


#: each built-in topology's per-packet greedy path builder
PER_PACKET_PATHS = {
    "hypercube": lambda topo, spec, x, z: topo.canonical_path_arcs(x, z),
    "butterfly": lambda topo, spec, x, z: topo.path_arcs(x, z),
    "ring": lambda topo, spec, x, z: topo.greedy_path_arcs(
        x, z, spec.option("direction", "absolute")
    ),
    "torus": lambda topo, spec, x, z: topo.greedy_path_arcs(x, z),
}


def small_spec(network: str, **overrides) -> ScenarioSpec:
    params = dict(
        name=f"conf-{network}",
        network=network,
        d=CONFORMANCE_D.get(network, 3),
        rho=0.5,
        horizon=120.0,
        replications=1,
        base_seed=7,
        seed_policy="sequential",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(available_networks()) == ALL_BUILTINS

    def test_aliases_resolve(self):
        assert canonical_network_name("cube") == "hypercube"
        assert canonical_network_name("bf") == "butterfly"
        assert canonical_network_name("cycle") == "ring"
        assert canonical_network_name("grid") == "torus"
        assert get_network("d-cube") is get_network("hypercube")
        assert set(all_network_names()) >= ALL_BUILTINS | {"cube", "bf"}

    def test_unknown_network_enumerates_registry(self):
        with pytest.raises(ConfigurationError, match="hypercube"):
            get_network("mesh-of-trees")

    def test_iter_networks_sorted_with_metadata(self):
        plugins = iter_networks()
        names = [p.name for p in plugins]
        assert names == sorted(names)
        for p in plugins:
            assert p.summary

    def test_register_requires_protocol(self):
        with pytest.raises(ConfigurationError, match="NetworkPlugin"):
            register_network(object())

    def test_collision_requires_overwrite(self):
        class FakeRing(NetworkPlugin):
            name = "ring"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_network(FakeRing)
        # re-registering the *same* class is an idempotent no-op
        register_network(type(get_network("ring")))
        assert "ring" in available_networks()

    def test_alias_collision_rejected(self):
        class Clashing(NetworkPlugin):
            name = "freshnet"
            aliases = ("cube",)  # hypercube's alias

        with pytest.raises(ConfigurationError, match="alias"):
            register_network(Clashing)
        assert "freshnet" not in available_networks()

    def test_overwrite_cannot_steal_alias(self):
        class NetA(NetworkPlugin):
            name = "neta"
            aliases = ("shared-alias",)

        class NetB(NetworkPlugin):
            name = "netb"
            aliases = ("shared-alias",)

        register_network(NetA)
        try:
            # overwrite replaces same-name registrations only; it never
            # licenses stealing another plugin's alias
            with pytest.raises(ConfigurationError, match="alias"):
                register_network(NetB, overwrite=True)
            assert canonical_network_name("shared-alias") == "neta"
            assert "netb" not in available_networks()
        finally:
            unregister_network("neta")
        with pytest.raises(ConfigurationError):
            get_network("shared-alias")

    def test_wildcard_schemes_do_not_leak_to_unknown_networks(self):
        from repro.plugins import schemes_for_network

        assert schemes_for_network("mesh-of-trees") == ()

    def test_unregister_removes_aliases(self):
        class Temp(NetworkPlugin):
            name = "tempnet"
            aliases = ("tn",)

        register_network(Temp)
        assert canonical_network_name("tn") == "tempnet"
        unregister_network("tempnet")
        with pytest.raises(ConfigurationError):
            get_network("tn")

    def test_entry_point_discovery(self, monkeypatch):
        class EPNetwork(NetworkPlugin):
            name = "ep-net"
            summary = "from an entry point"

        class FakeEP:
            name = "ep-net"

            def load(self):
                return EPNetwork

        class BrokenEP:
            name = "broken-net"

            def load(self):
                raise ImportError("third-party package is broken")

        import importlib.metadata as md

        monkeypatch.setattr(
            md, "entry_points", lambda group=None: [FakeEP(), BrokenEP()]
        )
        try:
            with pytest.warns(RuntimeWarning, match="broken-net"):
                network_registry.NETWORKS._load_entry_points()
            assert "ep-net" in available_networks()
            assert "broken-net" not in available_networks()
        finally:
            unregister_network("ep-net")


class TestTopologyConformance:
    """The Topology contract, asserted against every registered network."""

    @pytest.fixture(params=sorted(ALL_BUILTINS))
    def plugin_and_topology(self, request):
        plugin = get_network(request.param)
        spec = small_spec(request.param)
        return plugin, spec, plugin.build_topology(spec)

    def test_dense_level_major_arc_ids(self, plugin_and_topology):
        _, _, topo = plugin_and_topology
        assert topo.num_arcs > 0 and topo.num_levels >= 1
        indices = [arc.index for arc in topo.arcs()]
        assert indices == list(range(topo.num_arcs))

    def test_arc_round_trip(self, plugin_and_topology):
        _, _, topo = plugin_and_topology
        for arc in topo.arcs():
            again = topo.arc(arc.index)
            assert again == arc

    def test_level_slices_partition_arc_ids(self, plugin_and_topology):
        _, _, topo = plugin_and_topology
        covered = []
        for level in range(topo.num_levels):
            s = topo.level_slice(level)
            covered.extend(range(*s.indices(topo.num_arcs)))
        assert covered == list(range(topo.num_arcs))

    def test_arc_levels_match_slices(self, plugin_and_topology):
        _, _, topo = plugin_and_topology
        for arc in topo.arcs():
            s = topo.level_slice(arc.level)
            assert s.start <= arc.index < s.stop

    def test_load_law_round_trip(self, plugin_and_topology):
        plugin, spec, _ = plugin_and_topology
        lam = plugin.lam_for_load(spec)
        assert lam > 0
        by_lam = spec.replace(lam=lam)
        assert plugin.load_factor(by_lam) == pytest.approx(spec.rho)
        assert by_lam.resolved_rho == pytest.approx(0.5)

    def test_hop_pmf_is_a_distribution(self, plugin_and_topology):
        plugin, spec, _ = plugin_and_topology
        pmf = plugin.greedy_hop_pmf(spec)
        assert np.all(pmf >= 0)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf @ np.arange(pmf.shape[0]) == pytest.approx(
            plugin.mean_greedy_hops(spec)
        )

    def test_paths_stay_in_range_and_match_hops(self, plugin_and_topology):
        plugin, spec, topo = plugin_and_topology
        sample = plugin.build_workload(spec).generate(
            60.0, np.random.default_rng(3)
        )
        paths = plugin.greedy_paths(topo, spec, sample)
        assert len(paths) == sample.num_packets
        for path in paths:
            assert all(0 <= a < topo.num_arcs for a in path)
            # a path never holds the same server twice (unit-capacity
            # arcs are crossed once)
            assert len(set(path)) == len(path)
        # every (origin, destination) pair -- half-way ties on the ring
        # and torus included -- matches the topology's per-packet builder
        n = plugin.num_sources(spec)
        origins, destinations = np.divmod(np.arange(n * n), n)
        pairs = TrafficSample(np.zeros(n * n), origins, destinations, 1.0)
        variants = [spec]
        if spec.network == "ring":
            variants.append(spec.replace(extra={"direction": "clockwise"}))
        build = PER_PACKET_PATHS[spec.network]
        for variant in variants:
            got = plugin.greedy_paths(topo, variant, pairs)
            assert [list(path) for path in got] == [
                build(topo, variant, int(x), int(z))
                for x, z in zip(origins, destinations)
            ]

    def test_bound_report_contains_bracket(self, plugin_and_topology):
        plugin, spec, _ = plugin_and_topology
        rows = dict(plugin.bound_report(spec))
        lower, upper = plugin.greedy_theory_bounds(spec)
        assert any(v == lower for v in rows.values())


class TestRingExactDistributions:
    """Brute-force checks of the ring/torus load law and hop pmf."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("direction", ["absolute", "clockwise"])
    def test_ring_mean_hops_matches_brute_force(self, d, direction):
        from repro.topology.ring import Ring

        plugin = get_network("ring")
        spec = small_spec("ring", d=d, extra={"direction": direction})
        ring = Ring(1 << d)
        n = ring.n
        exact = sum(
            ring.greedy_hops(x, z, direction) for x in range(n) for z in range(n)
        ) / (n * n)
        assert plugin.mean_greedy_hops(spec) == pytest.approx(exact)

    def test_ring_bottleneck_is_clockwise_flow(self):
        # rho/lam must equal the mean number of *clockwise* arcs crossed
        from repro.topology.ring import CLOCKWISE, Ring

        plugin = get_network("ring")
        spec = small_spec("ring", d=3)
        ring = Ring(8)
        cw_hops = sum(
            sum(
                1
                for a in ring.greedy_path_arcs(x, z)
                if ring.arc(a).level == CLOCKWISE
            )
            for x in range(8)
            for z in range(8)
        ) / 64.0
        assert spec.rho / plugin.lam_for_load(spec) == pytest.approx(cw_hops)

    def test_torus_mean_hops_matches_brute_force(self):
        from repro.topology.torus import Torus

        plugin = get_network("torus")
        spec = small_spec("torus", d=2, extra={"side": 5})
        t = Torus(5, 2)
        exact = sum(
            t.greedy_hops(x, z)
            for x in range(t.num_nodes)
            for z in range(t.num_nodes)
        ) / (t.num_nodes ** 2)
        assert plugin.mean_greedy_hops(spec) == pytest.approx(exact)

    def test_torus_side_must_be_at_least_three(self):
        with pytest.raises(ConfigurationError, match="side"):
            small_spec("torus", extra={"side": 2})


@pytest.mark.parametrize("d", [1, 5, 13, 24])
@pytest.mark.parametrize("p", [0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0])
def test_hypercube_hop_pmf_is_scipy_binomial(d, p):
    from scipy.stats import binom

    spec = small_spec("hypercube", d=d, p=p)
    pmf = get_network("hypercube").greedy_hop_pmf(spec)
    expected = binom.pmf(np.arange(d + 1), d, p)
    assert pmf == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestAliasNormalisation:
    """Satellite: aliases normalise before content-hashing, so an alias
    and its canonical name hit the same cache cell."""

    def test_alias_round_trip(self):
        via_alias = small_spec("cube")
        canonical = small_spec("hypercube")
        assert via_alias.network == "hypercube"
        assert via_alias.content_hash() == canonical.content_hash()
        assert via_alias.replication_hash() == canonical.replication_hash()
        # serialisation round-trips through the canonical name
        again = ScenarioSpec.from_dict(via_alias.to_dict())
        assert again == canonical.replace(name="conf-cube")
        assert again.network == "hypercube"

    def test_alias_shares_cache_cell(self, tmp_path):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        m = measure(small_spec("cube", replications=2), store=store)
        cached = store.load(small_spec("hypercube", replications=2))
        assert cached is not None
        assert cached.mean_delay == m.mean_delay

    def test_cli_accepts_alias(self, capsys):
        from repro.__main__ import main

        assert main(["bounds", "--network", "bf", "--d", "4", "--rho", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "butterfly" in out and "Prop 17" in out


#: cells for the fixed-point engine's checks: the network,
#: ``small_spec`` overrides and the replication seed.  The last two are
#: cells where two FIFO solvers that rounded differently delivered a
#: packet 2.8e-14 and 5.7e-14 apart.
_PAIR_CELLS = {
    "ring": ("ring", dict(d=4), 11),
    "torus": ("torus", dict(d=2), 11),
    "torus-hotspot": (
        "torus", dict(d=2, traffic="hotspot", rho=0.9, horizon=80.0), 1
    ),
    "hypercube-transpose": (
        "hypercube", dict(d=4, traffic="transpose", rho=0.9, horizon=80.0), 0
    ),
}


def assert_same_paths(fp, vec):
    """Two runs of one cell deliver every packet at the same epoch, bit
    for bit."""
    assert np.array_equal(
        fp.record.delivery.view(np.int64), vec.record.delivery.view(np.int64)
    )
    assert fp.mean_delay == vec.mean_delay


def assert_consistent_sample_path(spec, seed):
    """The fixed-point engine's sample path of one replication of
    *spec* is the one ``run_spec`` delivers on the spec's native engine
    (the feed-forward engine on a levelled network), and every arc of
    it serves its logged arrivals exactly as the scalar server of the
    spec's discipline would, bit for bit."""
    from repro.rng import as_generator
    from repro.sim.fixedpoint import simulate_paths_fixed_point
    from repro.sim.lindley import fifo_departure_times
    from repro.sim.servers import ps_departure_times

    net = spec.network_plugin
    topology = net.build_topology(spec)
    sample = net.build_workload(spec).generate(spec.horizon, as_generator(seed))
    res = simulate_paths_fixed_point(
        topology.num_arcs, sample.times, net.greedy_paths(topology, spec, sample),
        discipline=spec.discipline, record_arc_log=True,
    )
    native = run_spec(spec, seed, keep_record=True)
    assert np.array_equal(
        res.delivery.view(np.int64), native.record.delivery.view(np.int64)
    )
    serve = {"fifo": fifo_departure_times, "ps": ps_departure_times}[spec.discipline]
    log = res.arc_log
    for a in np.unique(log.arc):
        rows = np.flatnonzero(log.arc == a)
        rows = rows[np.lexsort((log.pid[rows], log.t_in[rows]))]
        want = serve(log.t_in[rows], 1.0)
        assert np.array_equal(log.t_out[rows].view(np.int64), want.view(np.int64)), a


class TestFixedPointEngine:
    """The fixed-point solver is the one path engine and the ring/torus
    native engine.  On every cell its sample path is consistent arc by
    arc with the scalar FIFO or PS server, and on levelled networks it
    is the feed-forward engine's, bit for bit."""

    @pytest.mark.parametrize("cell", sorted(_PAIR_CELLS))
    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_engines_agree_to_roundoff(self, cell, discipline):
        network, overrides, seed = _PAIR_CELLS[cell]
        params = dict(
            rho=0.7 if discipline == "fifo" else 0.6,
            discipline=discipline,
            horizon=150.0,
        )
        spec = small_spec(network, **{**params, **overrides})
        assert_consistent_sample_path(spec, seed)

    def test_ring_clockwise_variant_cross_validates(self):
        spec = small_spec(
            "ring", d=4, rho=0.7, horizon=150.0,
            extra={"direction": "clockwise"},
        )
        assert_consistent_sample_path(spec, 5)

    def test_matches_feedforward_on_levelled_network(self, small_cube_workload):
        from repro.sim.eventsim import hypercube_paths
        from repro.sim.feedforward import simulate_hypercube_greedy
        from repro.sim.fixedpoint import simulate_paths_fixed_point
        from repro.topology.hypercube import Hypercube

        cube = Hypercube(4)
        sample = small_cube_workload.generate(120.0, np.random.default_rng(9))
        paths = hypercube_paths(4, sample.origins, sample.destinations)
        for discipline in ("fifo", "ps"):
            ff = simulate_hypercube_greedy(cube, sample, discipline=discipline)
            fp = simulate_paths_fixed_point(
                cube.num_arcs, sample.times, paths, discipline=discipline
            )
            np.testing.assert_array_equal(fp.delivery, ff.delivery)
            # a levelled network converges in <= max hops (+1 verify) sweeps
            assert fp.sweeps <= cube.d + 1

    def test_nonconvergence_raises(self):
        from repro.errors import SimulationError
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        times = np.zeros(4)
        paths = [[0, 1], [1, 0], [0, 1], [1, 0]]
        with pytest.raises(SimulationError, match="converge"):
            simulate_paths_fixed_point(
                2, times, paths, discipline="ps", max_sweeps=1
            )
        # FIFO makes one pass: the sweep ceiling cannot cut it short
        one = simulate_paths_fixed_point(2, times, paths, max_sweeps=1)
        default = simulate_paths_fixed_point(2, times, paths)
        assert np.array_equal(one.delivery, default.delivery)

    @pytest.mark.parametrize("service", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_rejects_nonpositive_or_nan_service(self, discipline, service):
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        with pytest.raises(ConfigurationError, match="service"):
            simulate_paths_fixed_point(
                2, np.zeros(2), [[0, 1], [1]],
                discipline=discipline, service=service,
            )

    def test_fifo_service_vanishing_at_large_times_raises(self):
        """At t = 1e17, t + 1 rounds to t: no consistent path exists
        in floats, and the pass says so rather than deliver at birth."""
        from repro.errors import SimulationError
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        with pytest.raises(SimulationError, match="vanishes"):
            simulate_paths_fixed_point(
                2, np.full(2, 1e17), [[0, 1], [1, 0]]
            )

    def test_empty_and_zero_hop_packets(self):
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        out = simulate_paths_fixed_point(4, np.array([1.0, 2.0]), [[], []])
        np.testing.assert_array_equal(out.delivery, [1.0, 2.0])
        assert out.sweeps == 0


@contextmanager
def _fifo_through_sweeps():
    """Solve FIFO with the sweep loop instead of the one-pass solver."""
    import repro.sim.fixedpoint as fixedpoint

    one_pass = fixedpoint._fifo_pass
    fixedpoint._fifo_pass = fixedpoint._sweeps
    try:
        yield
    finally:
        fixedpoint._fifo_pass = one_pass


def _cyclic_batch(seed, num_arcs, reps, n, span, grid, service):
    """*reps* random cyclic systems on *num_arcs* arcs: unsorted births
    over *span*, on a quarter grid or off it, and paths that wrap
    around the arc ids, revisit arcs or are empty."""
    rng = np.random.default_rng(seed)
    births, paths = [], []
    for r in range(reps):
        size = n if r == 0 else int(rng.integers(0, n + 1))
        b = rng.uniform(0.0, span, size=size)
        births.append(np.round(b * 4.0) / 4.0 if grid else b)
        rep_paths = []
        for hops in rng.integers(0, 8, size=size):
            if rng.random() < 0.5:  # a ring walk, either way round
                first = int(rng.integers(num_arcs))
                step = int(rng.choice([-1, 1]))
                rep_paths.append(
                    [(first + step * k) % num_arcs for k in range(hops)]
                )
            else:  # any arcs, repeats included
                rep_paths.append(rng.integers(0, num_arcs, size=hops).tolist())
        paths.append(rep_paths)
    return num_arcs, births, paths, service


_CYCLIC_BATCHES = st.builds(
    _cyclic_batch,
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 12, 40]),
    st.integers(1, 3),
    st.integers(0, 300),
    st.sampled_from([4.0, 40.0, 400.0]),
    st.booleans(),
    # 1.7 is where the closed form most often rounds below fl(t + s)
    st.sampled_from([0.5, 1.0, 1.7, 3.0]),
)


class TestFifoPassOracle:
    """The FIFO pass serves each hop row once; the sweep loop run on
    FIFO iterates to the same unique consistent path.  They agree bit
    for bit, on stacked batches and on one replication alone."""

    @settings(max_examples=50, deadline=None)
    @given(system=_CYCLIC_BATCHES)
    @example(system=_cyclic_batch(1, 3, 1, 300, 40.0, True, 1.7))  # hot
    @example(system=_cyclic_batch(0, 12, 3, 200, 4.0, False, 1.7))  # dense
    @example(system=_cyclic_batch(2, 40, 2, 150, 400.0, False, 3.0))  # sparse
    def test_pass_matches_sweeps_bit_for_bit(self, system):
        from repro.sim.fixedpoint import (
            simulate_paths_fixed_point,
            simulate_paths_fixed_point_batch,
        )

        num_arcs, births, paths, service = system
        got = simulate_paths_fixed_point_batch(
            num_arcs, births, paths, service=service
        )
        with _fifo_through_sweeps():
            want = simulate_paths_fixed_point_batch(
                num_arcs, births, paths, service=service
            )
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        solo = simulate_paths_fixed_point(
            num_arcs, births[-1], paths[-1], service=service
        )
        assert np.array_equal(
            solo.delivery.view(np.int64), got[-1].view(np.int64)
        )
        rows = sum(len(p) for p in paths[-1])
        assert (solo.sweeps, solo.sweep_rows) == ((1, rows) if rows else (0, 0))


class TestScenarioCatalog:
    def test_new_scenarios_registered(self):
        assert get_scenario("ring-greedy").network == "ring"
        assert get_scenario("ring-greedy-ps").discipline == "ps"
        assert get_scenario("torus-greedy").network == "torus"
        assert get_scenario("torus-greedy-ps").discipline == "ps"
        assert get_scenario("ring-greedy-event").engine == "fixedpoint"
        assert get_scenario("torus-greedy-event").engine == "fixedpoint"

    def test_ring_scenario_within_bracket(self):
        m = measure(get_scenario("ring-greedy").replace(
            replications=2, horizon=200.0, d=4))
        assert m.within_bounds
        assert m.lower_bound == pytest.approx(4.0)  # n/4 mean hops

    def test_torus_scenario_within_bracket(self):
        m = measure(get_scenario("torus-greedy").replace(replications=2))
        assert m.within_bounds
        assert m.lower_bound == pytest.approx(2.0)  # d * E[ring hops]


class TestCustomNetworkEndToEnd:
    """A third-party network drives the whole stack through the greedy
    scheme without touching any repro module — the tentpole promise."""

    @pytest.fixture()
    def star_network(self):
        """A toy 'star': d+1 nodes, node 0 is the hub; every packet
        routes source -> hub -> destination (levelled, 2 levels)."""

        @register_network
        class StarNetwork(NetworkPlugin):
            name = "star"
            aliases = ("hub",)
            summary = "toy hub-and-spoke network"

            def build_topology(self, spec):
                from repro.topology.ring import Ring

                # reuse the ring's arc table as a stand-in substrate:
                # spoke arcs into the hub live in [0, n), out of the
                # hub in [n, 2n) — dense, level-major, conformant
                return Ring(spec.d + 3)

            def lam_for_load(self, spec):
                return spec.rho / 2.0

            def load_factor(self, spec):
                return spec.lam * 2.0

            def build_workload(self, spec):
                from repro.traffic.destinations import UniformNodeLaw
                from repro.traffic.workload import NodePoissonWorkload

                n = spec.d + 3
                return NodePoissonWorkload(
                    n, spec.resolved_lam, UniformNodeLaw(n)
                )

            def greedy_paths(self, topology, spec, sample):
                n = topology.n
                paths = []
                for i in range(sample.num_packets):
                    x = int(sample.origins[i])
                    z = int(sample.destinations[i])
                    paths.append([] if x == z else [x, n + z])
                return paths

            # greedy_levels: inherited — the NetworkPlugin default
            # (None: the fixed-point engine over greedy_paths) carries
            # a custom network with no engine code at all

        yield StarNetwork
        unregister_network("star")

    def test_spec_runs_on_registered_network(self, star_network):
        spec = ScenarioSpec(
            name="star-toy", network="hub", scheme="greedy", d=5,
            rho=0.4, horizon=100.0, replications=2,
        )
        assert spec.network == "star"
        assert_consistent_sample_path(spec, 0)
        m = measure(spec)
        assert m.network == "star"
        assert m.num_packets > 0

    def test_levelled_network_rides_feedforward(self, star_network, tmp_path):
        """Declaring only a per-level arc map (``greedy_levels``) puts a
        custom network on the feed-forward engine: its sequential,
        batched and chunked routes all run, with byte-identical cells,
        and agree with the fixed-point engine over its greedy paths."""
        from repro.engines.registry import resolve_engine
        from repro.runner.store import ResultsStore

        class StarLevels:
            """Level 0: the spoke into the hub (arc = origin); level 1:
            the spoke out (arc n + destination).  A packet whose origin
            is its destination crosses neither."""

            num_levels = 2

            def __init__(self, n):
                self.n = n
                self.num_arcs = 2 * n

            def crossings(self, diff):
                return np.where(diff != 0, 3, 0)

            def arcs(self, level, origins, diff):
                return origins if level == 0 else self.n + (origins ^ diff)

        @register_network
        class LevelledStar(star_network):
            name = "lstar"
            aliases = ()

            def greedy_levels(self, topology, spec):
                return StarLevels(topology.n)

        try:
            spec = ScenarioSpec(
                name="lstar-toy", network="lstar", scheme="greedy", d=5,
                rho=0.4, horizon=60.0, replications=3,
            )
            assert resolve_engine(spec).name == "feedforward"
            vec = run_spec(spec, 0, keep_record=True)
            fp = run_spec(spec.replace(engine="fixedpoint"), 0, keep_record=True)
            assert_same_paths(fp, vec)

            def route(cell_spec, batch):
                store = ResultsStore(tmp_path / f"{cell_spec.name}-{batch}")
                m = measure(cell_spec, jobs=1, batch=batch, store=store)
                assert m.num_packets > 0
                return m.replication_delays, [
                    store.replication_path_for(cell_spec, k).read_bytes()
                    for k in range(cell_spec.replications)
                ]

            chunked = spec.replace(
                name="lstar-chunked", extra={"chunk_packets": 7}
            )
            seq, chk_seq = route(spec, False), route(chunked, False)
            assert route(spec, True) == seq
            assert route(chunked, True) == chk_seq
            # a chunked cell embeds its own spec; its numbers do not move
            assert chk_seq[0] == seq[0]
        finally:
            unregister_network("lstar")

    def test_unregistered_network_rejected_again(self, star_network):
        unregister_network("star")
        with pytest.raises(ConfigurationError, match="star"):
            ScenarioSpec(name="x", network="star", rho=0.4)
        register_network(star_network)  # restore for fixture teardown


def test_no_network_literals_outside_networks_package():
    """Grep-style guard: the tentpole's deliverable is that network
    dispatch lives in src/repro/networks/ alone.  Any ``network ==``
    (or ``== network``) literal elsewhere in the library is a
    regression to the closed string enum."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert src.is_dir()
    pattern = re.compile(
        r"""(\bnetwork\s*==\s*["'])|(["']\s*==\s*spec\.network)"""
    )
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if "networks" in path.relative_to(src).parts[:1]:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(src)}:{lineno}: {line.strip()}")
    assert not offenders, "network literals outside repro.networks:\n" + "\n".join(
        offenders
    )
