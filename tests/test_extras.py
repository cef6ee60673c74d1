"""Tests for the extras: networkx adapters, occupancy pmf, butterfly-R
external sampling, and the public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core.qnetwork import ButterflyRSpec
from repro.sim.feedforward import simulate_markovian
from repro.sim.measurement import arc_occupancy_pmf
from repro.topology.butterfly import Butterfly
from repro.topology.graphs import butterfly_digraph, hypercube_digraph
from repro.topology.hypercube import Hypercube


class TestNetworkxAdapters:
    def test_hypercube_against_networkx(self):
        cube = Hypercube(4)
        g = hypercube_digraph(cube)
        assert g.number_of_nodes() == 16
        assert g.number_of_edges() == 64
        # independent check: networkx's own hypercube graph is isomorphic
        ref = nx.hypercube_graph(4)
        assert nx.is_isomorphic(g.to_undirected(), nx.convert_node_labels_to_integers(ref))

    def test_hypercube_diameter(self):
        cube = Hypercube(5)
        g = hypercube_digraph(cube)
        assert nx.diameter(g.to_undirected()) == 5 == cube.diameter

    def test_hypercube_degrees(self):
        g = hypercube_digraph(Hypercube(3))
        assert all(d == 3 for _, d in g.out_degree())
        assert all(d == 3 for _, d in g.in_degree())

    def test_shortest_path_lengths_match_hamming(self):
        cube = Hypercube(4)
        g = hypercube_digraph(cube).to_undirected()
        for x in (0, 5, 15):
            lengths = nx.single_source_shortest_path_length(g, x)
            for z in (0, 3, 9, 12):
                assert lengths[z] == cube.hamming(x, z)

    def test_butterfly_structure(self):
        bf = Butterfly(3)
        g = butterfly_digraph(bf)
        assert g.number_of_nodes() == bf.num_nodes
        assert g.number_of_edges() == bf.num_arcs
        # levels 0..d-1 have out-degree 2, final level 0
        for node in g.nodes:
            _, level = bf.node_components(node)
            assert g.out_degree(node) == (2 if level < 3 else 0)

    def test_butterfly_unique_paths(self):
        bf = Butterfly(3)
        g = butterfly_digraph(bf)
        # exactly one path from any input to any output
        src = bf.node_id(2, 0)
        dst = bf.node_id(5, 3)
        paths = list(nx.all_simple_paths(g, src, dst))
        assert len(paths) == 1
        assert len(paths[0]) == 4  # d+1 nodes

    def test_canonical_path_is_a_networkx_path(self):
        cube = Hypercube(4)
        g = hypercube_digraph(cube)
        nodes = cube.canonical_path_nodes(0b0011, 0b1100)
        assert nx.is_path(g, nodes)


class TestOccupancyPmf:
    def test_single_busy_interval(self):
        from repro.sim.feedforward import ArcLog

        log = ArcLog(
            pid=np.array([0]),
            arc=np.array([7]),
            t_in=np.array([0.0]),
            t_out=np.array([1.0]),
        )
        pmf = arc_occupancy_pmf(log, 7, 0.0, 2.0, max_n=4)
        assert pmf[1] == pytest.approx(0.5, abs=0.01)
        assert pmf[0] == pytest.approx(0.5, abs=0.01)

    def test_normalised(self):
        from repro.core.greedy import GreedyHypercubeScheme

        res = GreedyHypercubeScheme(3, 1.0, 0.5).run(
            100.0, rng=1, record_arc_log=True
        )
        pmf = arc_occupancy_pmf(res.arc_log, 0, 20.0, 80.0)
        assert pmf.sum() == pytest.approx(1.0)

    def test_validates_window(self):
        from repro.sim.feedforward import ArcLog
        from repro.errors import MeasurementError

        log = ArcLog(np.array([0]), np.array([0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(MeasurementError):
            arc_occupancy_pmf(log, 0, 5.0, 5.0)


class TestButterflyRSampling:
    def test_external_arrivals_level0_only(self, bf3):
        spec = ButterflyRSpec(bf3, 0.3)
        times, arcs = spec.sample_external_arrivals(1.0, 400.0, rng=2)
        assert np.all(arcs < 16)
        kinds = arcs % 2
        assert np.mean(kinds) == pytest.approx(0.3, abs=0.02)

    def test_network_r_delay_matches_physical(self, bf3):
        from repro.core.greedy import GreedyButterflyScheme

        lam, p = 1.2, 0.5
        spec = ButterflyRSpec(bf3, p)
        times, arcs = spec.sample_external_arrivals(lam, 800.0, rng=3)
        res = simulate_markovian(spec, times, arcs, rng=4)
        t_r = float((res.exit_times - times).mean())
        t_phys = GreedyButterflyScheme(d=3, lam=lam, p=p).measure_delay(
            800.0, rng=5, warmup_fraction=0.0
        )
        assert t_r == pytest.approx(t_phys, rel=0.1)


class TestPublicAPI:
    def test_all_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        """One version: the package metadata reads ``repro.__version__``."""
        import importlib.metadata

        import repro

        try:
            installed = importlib.metadata.version("repro-greedy-routing")
        except importlib.metadata.PackageNotFoundError:
            # run from the source tree: pyproject.toml must not pin its own
            pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
            text = pyproject.read_text()
            assert 'dynamic = ["version"]' in text
            assert 'version = { attr = "repro.__version__" }' in text
        else:
            assert installed == repro.__version__

    def test_subpackage_all_exports(self):
        import repro.queueing as q
        import repro.sim as s
        import repro.topology as t
        import repro.traffic as tr

        for mod in (q, s, t, tr):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    @staticmethod
    def _run_fresh(code):
        """Run *code* in a fresh interpreter importing this checkout's repro."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_needs_no_networkx(self):
        # networkx is a dev extra (the adapter tests use it), not a
        # runtime dependency: importing the package and resolving a
        # scenario's plugins must not load it
        self._run_fresh(
            "import sys\n"
            "import repro, repro.runner, repro.topology\n"
            "from repro.engines import resolve_engine\n"
            "spec = repro.runner.get_scenario('smoke')\n"
            "spec.plugin, spec.network_plugin, spec.traffic_plugin\n"
            "resolve_engine(spec)\n"
            "assert 'networkx' not in sys.modules, 'importing repro loaded networkx'\n"
        )

    def test_import_loads_no_scipy(self):
        # scipy serves one function, the t quantile of a pooled
        # interval: a process loads scipy.special at its first pooled
        # measurement and never scipy.stats
        self._run_fresh(
            "import sys\n"
            "import repro, repro.runner\n"
            "from repro.engines import resolve_engine\n"
            "repro.runner.list_scenarios()\n"
            "spec = repro.runner.get_scenario('smoke')\n"
            "spec.plugin, spec.network_plugin, spec.traffic_plugin\n"
            "resolve_engine(spec)\n"
            "spec.network_plugin.build_topology(spec)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "repro.runner.measure(spec)\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
