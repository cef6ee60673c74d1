"""Tests for the capability-declaring scheme-plugin API and registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.networks import available_networks
from repro.plugins import (
    Capabilities,
    OptionSpec,
    SchemePlugin,
    available_schemes,
    get_plugin,
    iter_plugins,
    register_scheme,
    schemes_for_network,
    unregister_scheme,
)
from repro.plugins import registry as plugin_registry
from repro.plugins.api import steady_output
from repro.runner import ScenarioSpec, get_scenario, measure
from repro.sim.run_spec import run_spec

ALL_BUILTINS = {
    "greedy",
    "slotted",
    "random_order",
    "twophase",
    "pipelined_batch",
    "deflection",
    "static_greedy",
    "static_valiant",
}


class TestRegistry:
    def test_builtins_are_registered(self):
        assert ALL_BUILTINS <= set(available_schemes())

    def test_networks_are_derived_from_plugins(self):
        assert available_networks() == ("butterfly", "hypercube", "ring", "torus")
        assert schemes_for_network("butterfly") == ("greedy",)
        assert schemes_for_network("ring") == ("greedy",)
        assert schemes_for_network("torus") == ("greedy",)
        # aliases resolve before the capability lookup
        assert schemes_for_network("bf") == ("greedy",)
        assert set(schemes_for_network("hypercube")) == set(available_schemes())

    def test_unknown_scheme_enumerates_registry(self):
        with pytest.raises(ConfigurationError, match="greedy"):
            get_plugin("magic")

    def test_iter_plugins_sorted_with_capabilities(self):
        plugins = iter_plugins()
        names = [p.name for p in plugins]
        assert names == sorted(names)
        for p in plugins:
            assert p.capabilities.networks
            assert p.summary

    def test_register_requires_protocol(self):
        with pytest.raises(ConfigurationError, match="SchemePlugin"):
            register_scheme(object())

    def test_collision_requires_overwrite(self):
        class FakeGreedy(SchemePlugin):
            name = "greedy"
            capabilities = Capabilities(networks=("hypercube",))

        with pytest.raises(ConfigurationError, match="already registered"):
            register_scheme(FakeGreedy)
        # re-registering the *same* class is an idempotent no-op
        register_scheme(type(get_plugin("greedy")))
        assert "greedy" in available_schemes()

    def test_entry_point_discovery(self, monkeypatch):
        class EPPlugin(SchemePlugin):
            name = "ep-scheme"
            summary = "from an entry point"
            capabilities = Capabilities(networks=("hypercube",))

        class FakeEP:
            name = "ep-scheme"

            def load(self):
                return EPPlugin

        class BrokenEP:
            name = "broken-scheme"

            def load(self):
                raise ImportError("third-party package is broken")

        import importlib.metadata as md

        monkeypatch.setattr(
            md, "entry_points", lambda group=None: [FakeEP(), BrokenEP()]
        )
        try:
            with pytest.warns(RuntimeWarning, match="broken-scheme"):
                plugin_registry.SCHEMES._load_entry_points()
            assert "ep-scheme" in available_schemes()
            assert "broken-scheme" not in available_schemes()
        finally:
            unregister_scheme("ep-scheme")


class TestCustomPluginEndToEnd:
    """A third-party scheme drives the whole stack: spec validation,
    run_spec, measure — without touching any repro module."""

    @pytest.fixture()
    def zero_delay(self):
        @register_scheme
        class ZeroDelayPlugin(SchemePlugin):
            name = "zero_delay"
            summary = "toy: deliver every packet at birth"
            capabilities = Capabilities(
                networks=("hypercube",),
                options=(OptionSpec("bump", kind="float", default=0.0),),
            )

            def prepare(self, spec):
                from repro.sim.measurement import DelayRecord
                from repro.topology.hypercube import Hypercube
                from repro.traffic.destinations import BernoulliFlipLaw
                from repro.traffic.workload import HypercubeWorkload

                cube = Hypercube(spec.d)
                bump = float(spec.option("bump", 0.0))

                def run(gen):
                    workload = HypercubeWorkload(
                        cube, spec.resolved_lam, BernoulliFlipLaw(spec.d, spec.p)
                    )
                    sample = workload.generate(spec.horizon, gen)
                    record = DelayRecord(
                        sample.times, sample.times + bump, sample.horizon
                    )
                    return steady_output(spec, record)

                return run

        yield ZeroDelayPlugin
        unregister_scheme("zero_delay")

    def test_spec_accepts_registered_scheme(self, zero_delay):
        spec = ScenarioSpec(
            name="toy", scheme="zero_delay", d=3, rho=0.5, horizon=80.0,
            replications=2, extra={"bump": 1.5},
        )
        out = run_spec(spec, 0)
        assert out.mean_delay == pytest.approx(1.5)
        m = measure(spec)
        assert m.mean_delay == pytest.approx(1.5)
        assert m.scheme == "zero_delay"

    def test_option_schema_enforced(self, zero_delay):
        with pytest.raises(ConfigurationError, match="bump"):
            ScenarioSpec(name="toy", scheme="zero_delay", rho=0.5,
                         extra={"bmup": 1.0})

    def test_unregistered_scheme_rejected_again(self, zero_delay):
        unregister_scheme("zero_delay")
        with pytest.raises(ConfigurationError, match="zero_delay"):
            ScenarioSpec(name="toy", scheme="zero_delay", rho=0.5)
        register_scheme(zero_delay)  # restore for the fixture teardown


class TestCapabilityValidation:
    def test_network_rejection_enumerates_alternatives(self):
        with pytest.raises(ConfigurationError) as err:
            ScenarioSpec(name="x", network="butterfly", scheme="deflection",
                         lam=0.5)
        msg = str(err.value)
        assert "hypercube" in msg  # what deflection does support
        assert "greedy" in msg  # what butterfly does support

    def test_engine_admissibility(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            ScenarioSpec(name="x", scheme="slotted", rho=0.5,
                         engine="event")
        with pytest.raises(ConfigurationError, match="fixedpoint"):
            ScenarioSpec(name="x", scheme="random_order", rho=0.5,
                         engine="vectorized")
        with pytest.raises(ConfigurationError, match="auto"):
            ScenarioSpec(name="x", scheme="deflection", lam=0.5,
                         engine="event")

    def test_discipline_admissibility(self):
        with pytest.raises(ConfigurationError, match="fifo"):
            ScenarioSpec(name="x", scheme="slotted", rho=0.5, discipline="ps")

    def test_greedy_cross_field_rules(self):
        with pytest.raises(ConfigurationError, match="vectorized-engine"):
            ScenarioSpec(name="x", rho=0.5, engine="event",
                         extra={"dim_order": (1, 0, 2, 3)})
        # dim_order is a *hypercube network* option: on the butterfly
        # it is rejected as unknown, with the butterfly's (empty)
        # network schema enumerated
        with pytest.raises(ConfigurationError, match="dim_order"):
            ScenarioSpec(name="x", network="butterfly", rho=0.5,
                         extra={"dim_order": (1, 0, 2)})
        # the legacy law option folds into the traffic axis — on the
        # butterfly bit reversal is now *valid* (rows are d-bit
        # addresses), and the normalised spec says so
        spec = ScenarioSpec(name="x", network="butterfly", rho=0.5,
                            extra={"law": "bitrev"})
        assert spec.traffic == "bitrev"
        assert spec.extra == ()
        # non-uniform traffic only reaches schemes that declare they
        # run under it; the slotted scheme admits uniform alone
        with pytest.raises(ConfigurationError, match="traffic"):
            ScenarioSpec(name="x", scheme="slotted", rho=0.5,
                         extra={"law": "bitrev"})
        with pytest.raises(ConfigurationError, match="traffic"):
            ScenarioSpec(name="x", scheme="slotted", rho=0.5,
                         traffic="hotspot")

    def test_static_capability_drives_rate_rules(self):
        spec = ScenarioSpec(name="x", scheme="static_greedy")
        assert spec.is_static
        assert not ScenarioSpec(name="y", rho=0.5).is_static
        assert spec.plugin.name == "static_greedy"


class TestButterflyEventEngine:
    """The concrete capability the redesign unlocks: the fixed-point
    path engine cross-validates greedy routing on the butterfly (the
    catalog's ``-event`` cells force it)."""

    def test_event_scenarios_registered(self):
        assert get_scenario("butterfly-greedy-event").engine == "fixedpoint"
        assert get_scenario("butterfly-greedy-event-ps").discipline == "ps"

    # fifo-bitrev: a cell where two FIFO solvers that rounded
    # differently delivered a packet 5.7e-14 apart
    @pytest.mark.parametrize(
        "discipline, traffic, rho, horizon, seed",
        [
            ("fifo", "uniform", 0.7, 150.0, 11),
            ("ps", "uniform", 0.7, 150.0, 11),
            ("fifo", "bitrev", 0.9, 80.0, 1),
        ],
        ids=["fifo", "ps", "fifo-bitrev"],
    )
    def test_engines_agree_to_roundoff(self, discipline, traffic, rho, horizon, seed):
        base = ScenarioSpec(
            name="bf-xval", network="butterfly", discipline=discipline,
            traffic=traffic, d=3, rho=rho, horizon=horizon, replications=1,
            base_seed=11, seed_policy="sequential",
        )
        vec = run_spec(base, seed, keep_record=True)
        fp = run_spec(base.replace(engine="fixedpoint"), seed, keep_record=True)
        assert vec.num_packets == fp.num_packets
        # the level sweep and the path solver: bit for bit
        assert np.array_equal(
            fp.record.delivery.view(np.int64),
            vec.record.delivery.view(np.int64),
        )
        assert fp.mean_delay == vec.mean_delay

    def test_event_butterfly_within_paper_bracket(self):
        m = measure(get_scenario("butterfly-greedy-event").replace(
            replications=2, horizon=250.0))
        assert m.within_bounds

    def test_butterfly_packet_paths_match_topology(self):
        from repro.sim.eventsim import butterfly_packet_paths
        from repro.topology.butterfly import Butterfly
        from repro.traffic.destinations import BernoulliFlipLaw
        from repro.traffic.workload import ButterflyWorkload

        bf = Butterfly(3)
        sample = ButterflyWorkload(bf, 0.8, BernoulliFlipLaw(3, 0.5)).generate(
            40.0, np.random.default_rng(2)
        )
        paths = butterfly_packet_paths(bf, sample)
        assert len(paths) == sample.num_packets
        for i, path in enumerate(paths):
            assert len(path) == bf.d  # one arc per level, always
            assert list(path) == bf.path_arcs(
                int(sample.origins[i]), int(sample.destinations[i])
            )


class TestCLI:
    def test_schemes_lists_capabilities(self, capsys):
        from repro.__main__ import main

        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ALL_BUILTINS:
            assert name in out
        assert "entry-point" in out

    def test_describe_shows_plugin_metadata(self, capsys):
        from repro.__main__ import main

        assert main(["describe", "butterfly-greedy-event"]) == 0
        out = capsys.readouterr().out
        assert "GreedyPlugin" in out
        assert "ButterflyNetwork" in out
        assert "content hash" in out

    def test_describe_shows_network_options(self, capsys):
        from repro.__main__ import main

        assert main(["describe", "hypercube-greedy-event"]) == 0
        out = capsys.readouterr().out
        assert "HypercubeNetwork" in out
        assert "network option: dim_order" in out
        assert "UniformTraffic" in out

    def test_describe_static_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["describe", "static-greedy-bitrev"]) == 0
        out = capsys.readouterr().out
        assert "static task" in out and "option: perm" in out

    def test_describe_unknown_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["describe", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown scenario")
        assert "smoke" in err and err.count("\n") == 1
