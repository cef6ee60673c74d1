"""Tests for the capability-declaring traffic-plugin API and registry.

Covers the registry (decorator registration, aliases, entry-point-style
runtime registration), the statistical conformance contract every
registered traffic plugin must honor on at least two networks
(empirical mask frequencies vs. ``mask_pmf()`` at a fixed seed,
flip-probability and mean-distance closed forms, plugin-specific
destination laws), the bit-identity of the network's
``build_workload_batch`` against one ``build_workload(spec).generate``
per generator, the end-to-end batched engine path under every law, the
alias-normalisation cache guarantee (including the legacy
``extra={"law": ...}`` spelling), the new
scenario catalog entries, and a grep-style guard that no traffic
dispatch survives outside ``src/repro/traffic/``.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import as_generator, replication_seeds
from repro.runner import ScenarioSpec, get_scenario, measure
from repro.sim.run_spec import run_spec
from repro.traffic import (
    TrafficPlugin,
    available_traffics,
    get_traffic,
    iter_traffics,
    register_traffic,
    unregister_traffic,
)

#: the operating point of the conformance suite: small, even d (the
#: transpose law needs it), rate given directly so non-paper laws do
#: not ride the uniform load law
_CONF = dict(scheme="greedy", d=4, lam=0.3, horizon=500.0, replications=1)

#: networks a law is probed on, in preference order
_CANDIDATE_NETWORKS = ("hypercube", "butterfly", "ring", "torus")


def conf_spec(traffic: str, network: str, **overrides) -> ScenarioSpec:
    params = dict(_CONF, **overrides)
    return ScenarioSpec(
        name=f"conf-{traffic}-{network}",
        network=network,
        traffic=traffic,
        **params,
    )


def _supported_networks(plugin) -> list:
    nets = []
    for network in _CANDIDATE_NETWORKS:
        spec = ScenarioSpec(
            name="probe", network=network, d=4, lam=0.3, horizon=10.0
        )
        if plugin.supports(spec.replace(name="probe")) is None:
            nets.append(network)
    return nets


def _conformance_cells():
    """(plugin name, network) pairs: every registered law on (at
    least) its first two supported networks — plus the ring where the
    law runs there, so the node-addressed branch is probed too."""
    cells = []
    for plugin in iter_traffics():
        nets = _supported_networks(plugin)
        assert len(nets) >= 2, (
            f"traffic {plugin.name!r} must run on at least two built-in "
            f"networks, supports only {nets}"
        )
        probed = nets[:2] + [n for n in nets[2:] if n == "ring"]
        cells.extend((plugin.name, network) for network in probed)
    return cells


class TestRegistry:
    def test_builtins_registered(self):
        names = available_traffics()
        for expected in ("uniform", "bitrev", "transpose", "bitcomp",
                         "hotspot", "bursty"):
            assert expected in names

    def test_aliases_resolve(self):
        assert get_traffic("bernoulli").name == "uniform"
        assert get_traffic("eq1").name == "uniform"
        assert get_traffic("bit-reversal").name == "bitrev"
        assert get_traffic("hot-spot").name == "hotspot"

    def test_unknown_traffic_enumerates(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            get_traffic("zipfian")

    def test_duplicate_name_rejected(self):
        class Impostor(TrafficPlugin):
            name = "uniform"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_traffic(Impostor)

    def test_alias_theft_rejected(self):
        class Thief(TrafficPlugin):
            name = "thief"
            aliases = ("bernoulli",)  # owned by uniform

        with pytest.raises(ConfigurationError, match="collides"):
            register_traffic(Thief)
        assert "thief" not in available_traffics()

    def test_unnamed_plugin_rejected(self):
        class Nameless(TrafficPlugin):
            pass

        with pytest.raises(ConfigurationError, match="name"):
            register_traffic(Nameless)

    def test_non_plugin_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            register_traffic(object())  # type: ignore[arg-type]


class TestSpecNormalisation:
    """Aliases (and the legacy law spelling) normalise before
    content-hashing, so every spelling hits one cache cell."""

    def test_alias_round_trip(self):
        via_alias = conf_spec("bernoulli", "hypercube")
        canonical = conf_spec("uniform", "hypercube")
        assert via_alias.traffic == "uniform"
        assert via_alias.content_hash() == canonical.content_hash()
        assert via_alias.replication_hash() == canonical.replication_hash()
        again = ScenarioSpec.from_dict(via_alias.to_dict())
        assert again.traffic == "uniform"
        assert again == canonical.replace(name="conf-bernoulli-hypercube")

    def test_legacy_law_folds_into_traffic(self):
        legacy = ScenarioSpec(name="x", d=6, lam=0.4, extra={"law": "bitrev"})
        modern = ScenarioSpec(name="x", d=6, lam=0.4, traffic="bitrev")
        assert legacy.traffic == "bitrev"
        assert legacy.extra == ()
        assert legacy.content_hash() == modern.content_hash()
        bern = ScenarioSpec(name="x", d=6, lam=0.4, extra={"law": "bernoulli"})
        assert bern.traffic == "uniform"

    def test_legacy_law_conflicts_are_rejected(self):
        with pytest.raises(ConfigurationError, match="contradicts"):
            ScenarioSpec(name="x", d=6, lam=0.4, traffic="hotspot",
                         extra={"law": "bitrev"})
        with pytest.raises(ConfigurationError, match="bernoulli"):
            ScenarioSpec(name="x", d=6, lam=0.4, extra={"law": "zipf"})

    def test_alias_shares_cache_cell(self, tmp_path):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        spec = conf_spec("bernoulli", "hypercube",
                         horizon=60.0, replications=2)
        m = measure(spec, store=store)
        cached = store.load(
            conf_spec("uniform", "hypercube", horizon=60.0, replications=2)
        )
        assert cached is not None
        assert cached.mean_delay == m.mean_delay

    def test_unknown_traffic_in_spec_enumerates(self):
        with pytest.raises(ConfigurationError, match="registered traffic"):
            ScenarioSpec(name="x", rho=0.5, traffic="zipfian")


class TestAdmissibility:
    def test_bit_laws_rejected_on_node_addressed_networks(self):
        for traffic in ("bitrev", "transpose", "bitcomp"):
            with pytest.raises(ConfigurationError, match="bit-addressed"):
                conf_spec(traffic, "ring")

    def test_transpose_needs_even_d(self):
        with pytest.raises(ConfigurationError, match="even"):
            conf_spec("transpose", "hypercube", d=5)

    def test_hotspot_range_rules(self):
        with pytest.raises(ConfigurationError, match="beta"):
            conf_spec("hotspot", "hypercube", extra={"beta": 1.5})
        with pytest.raises(ConfigurationError, match="out of range"):
            conf_spec("hotspot", "hypercube", extra={"hot": 1 << 10})

    def test_bursty_knob_rules(self):
        with pytest.raises(ConfigurationError, match="burst"):
            conf_spec("bursty", "hypercube", extra={"burst": 0.5})
        with pytest.raises(ConfigurationError, match="duty"):
            conf_spec("bursty", "hypercube",
                      extra={"mode": "onoff", "duty": 0.0})
        with pytest.raises(ConfigurationError, match="mode"):
            conf_spec("bursty", "hypercube", extra={"mode": "fractal"})

    def test_hotspot_law_on_node_addressed_network(self):
        """The node-addressed hot-spot law exposes num_nodes and raises
        a clear error on .d (there is no d-bit structure to report)."""
        spec = conf_spec("hotspot", "ring")
        law = spec.traffic_plugin.destination_law(spec, spec.network_plugin)
        assert law.num_nodes == 16
        with pytest.raises(AttributeError, match="num_nodes"):
            _ = law.d
        # on a bit-addressed network .d is the address width as before
        cube_spec = conf_spec("hotspot", "hypercube")
        cube_law = cube_spec.traffic_plugin.destination_law(
            cube_spec, cube_spec.network_plugin
        )
        assert cube_law.d == 4 and cube_law.num_nodes == 16

    def test_uniform_only_schemes_reject_other_laws(self):
        for scheme in ("slotted", "deflection", "pipelined_batch"):
            with pytest.raises(ConfigurationError, match="traffic"):
                ScenarioSpec(name="x", scheme=scheme, d=4, rho=0.5,
                             traffic="hotspot")

    def test_traffic_options_are_typed_and_enumerated(self):
        with pytest.raises(ConfigurationError, match="float"):
            conf_spec("hotspot", "hypercube", extra={"beta": "lots"})
        # unknown options enumerate the traffic schema too
        with pytest.raises(ConfigurationError, match="beta"):
            conf_spec("hotspot", "hypercube", extra={"temperature": 3.0})


@pytest.mark.parametrize(
    "traffic,network", _conformance_cells(), ids=lambda v: str(v)
)
class TestConformance:
    """Statistical conformance of every registered law on (at least)
    two networks, at a fixed seed."""

    def _sample(self, spec):
        workload = spec.network_plugin.build_workload(spec)
        return workload.generate(spec.horizon, as_generator(20240731))

    def test_sample_shape_and_ranges(self, traffic, network):
        spec = conf_spec(traffic, network)
        net = spec.network_plugin
        sample = self._sample(spec)
        assert sample.num_packets > 200
        assert np.all(np.diff(sample.times) >= 0)
        assert sample.times[0] >= 0 and sample.times[-1] < spec.horizon
        assert np.all(sample.origins >= 0)
        assert np.all(sample.origins < net.num_sources(spec))
        bits = net.address_bits(spec)
        space = (1 << bits) if bits is not None else net.num_sources(spec)
        assert np.all(sample.destinations >= 0)
        assert np.all(sample.destinations < space)
        # long-run intensity matches lam * num_sources for every law
        # (bursty included: the modulation preserves the mean)
        expected = spec.resolved_lam * net.num_sources(spec) * spec.horizon
        assert sample.num_packets == pytest.approx(expected, rel=0.25)

    def test_empirical_masks_match_mask_pmf(self, traffic, network):
        spec = conf_spec(traffic, network)
        plugin = spec.traffic_plugin
        pmf = plugin.mask_pmf(spec)
        bits = spec.network_plugin.address_bits(spec)
        if pmf is None:
            if bits is not None and traffic in ("bitrev", "transpose"):
                return  # permutations are checked exactly below
            pytest.skip("law declares no mask closed form here")
        assert pmf.shape == (1 << bits,)
        assert pmf.sum() == pytest.approx(1.0)
        sample = self._sample(spec)
        masks = np.asarray(sample.origins) ^ np.asarray(sample.destinations)
        freq = np.bincount(masks, minlength=1 << bits) / sample.num_packets
        # fixed seed: deterministic, so the tolerance cannot flake
        assert float(np.abs(freq - pmf).sum()) < 0.12  # total variation
        q = plugin.flip_probabilities(spec)
        assert q is not None
        bit_freq = ((masks[:, None] >> np.arange(bits)) & 1).mean(axis=0)
        np.testing.assert_allclose(bit_freq, q, atol=0.05)
        mean_dist = plugin.mean_distance(spec)
        popcounts = ((masks[:, None] >> np.arange(bits)) & 1).sum(axis=1)
        assert float(popcounts.mean()) == pytest.approx(
            mean_dist, rel=0.1, abs=0.1
        )

    def test_law_specific_destinations(self, traffic, network):
        spec = conf_spec(traffic, network)
        net = spec.network_plugin
        sample = self._sample(spec)
        origins = np.asarray(sample.origins)
        dests = np.asarray(sample.destinations)
        bits = net.address_bits(spec)
        if traffic in ("bitrev", "transpose"):
            from repro.traffic.destinations import (
                bit_reversal_permutation,
                transpose_permutation,
            )

            perm = (bit_reversal_permutation(bits) if traffic == "bitrev"
                    else transpose_permutation(bits))
            np.testing.assert_array_equal(dests, perm[origins])
        elif traffic == "bitcomp":
            np.testing.assert_array_equal(dests, origins ^ ((1 << bits) - 1))
        elif traffic == "hotspot":
            beta = spec.option("beta", 0.1)
            hot = spec.option("hot", 0)
            share = float((dests == hot).mean())
            # beta plus the background's own mass on the hot node
            assert share >= 0.8 * beta

    def test_batch_generation_is_bit_identical(self, traffic, network):
        """NetworkPlugin.build_workload_batch(spec, h, gens)[r] must
        equal a fresh build_workload(spec).generate draw from the same
        seed — under both seed policies."""
        spec = conf_spec(traffic, network, horizon=120.0)
        net = spec.network_plugin
        for policy in ("spawn", "sequential"):
            seeds = replication_seeds(7, 3, policy)
            batch = net.build_workload_batch(
                spec, spec.horizon, [as_generator(s) for s in seeds]
            )
            singles = [
                net.build_workload(spec).generate(spec.horizon, as_generator(s))
                for s in seeds
            ]
            assert len(batch) == len(singles) == 3
            for b, s in zip(batch, singles):
                np.testing.assert_array_equal(b.times, s.times)
                np.testing.assert_array_equal(b.origins, s.origins)
                np.testing.assert_array_equal(b.destinations, s.destinations)

    def test_batched_engine_path_is_bit_identical(self, traffic, network):
        """The replication-batched fast path must survive the traffic
        axis: a batch of R greedy replications under every law equals
        R sequential runs, output for output."""
        spec = conf_spec(traffic, network, horizon=80.0, replications=3)
        runner = spec.plugin.batch_runner(spec)
        seeds = replication_seeds(spec.base_seed, 3, spec.seed_policy)
        assert runner(seeds) == [run_spec(spec, s) for s in seeds]


class TestTheoryGating:
    def test_paper_law_keeps_the_bracket(self):
        from repro.runner.engine import theory_bounds

        lower, upper = theory_bounds(conf_spec("uniform", "hypercube"))
        assert np.isfinite(lower) and np.isfinite(upper)

    def test_non_paper_laws_drop_the_bracket(self):
        from repro.runner.engine import theory_bounds

        for traffic in ("bitrev", "bitcomp", "hotspot", "bursty"):
            lower, upper = theory_bounds(conf_spec(traffic, "hypercube"))
            assert lower == -np.inf and upper == np.inf

    def test_only_uniform_declares_paper_law(self):
        assert [p.name for p in iter_traffics() if p.paper_law] == ["uniform"]

    def test_bounds_cli_agrees_with_runner_off_the_paper_law(self, capsys):
        """repro bounds must not print the eq. (1) stability verdict or
        Prop 12/13 bracket for a law the runner's theory_bounds refuses
        (the CLI/engine never-disagree invariant)."""
        from repro.__main__ import main

        for network, traffic in (
            ("hypercube", "bitrev"),
            ("butterfly", "transpose"),
            ("ring", "hotspot"),
        ):
            assert main(["bounds", "--network", network, "--traffic",
                         traffic, "--d", "4", "--rho", "0.7"]) == 0
            out = capsys.readouterr().out
            assert "closed-form theory" in out and traffic in out
            assert "stable" not in out
            assert "lower" not in out  # no bracket rows at all


class TestScenarioCatalog:
    def test_new_scenarios_registered(self):
        assert get_scenario("hypercube-greedy-hotspot").traffic == "hotspot"
        assert get_scenario("hypercube-greedy-bursty").traffic == "bursty"
        assert get_scenario("butterfly-greedy-transpose").traffic == "transpose"
        assert get_scenario("hypercube-greedy-bitcomp").traffic == "bitcomp"
        assert get_scenario("hypercube-twophase-bursty").scheme == "twophase"
        assert get_scenario("ring-greedy-hotspot").network == "ring"
        assert get_scenario("torus-greedy-hotspot").network == "torus"
        onoff = get_scenario("hypercube-greedy-bursty-onoff")
        assert onoff.option("mode") == "onoff"

    def test_hotspot_scenario_runs(self):
        m = measure(get_scenario("hypercube-greedy-hotspot").replace(
            replications=2, horizon=60.0, d=4))
        assert m.num_packets > 0
        assert m.within_bounds  # no bracket: (-inf, inf)

    def test_twophase_bursty_scenario_runs(self):
        m = measure(get_scenario("hypercube-twophase-bursty").replace(
            replications=2, horizon=60.0, d=4))
        assert m.num_packets > 0
        assert dict(m.metrics)["mean_hops"] > 0

    def test_bursty_delay_dominates_uniform_at_equal_load(self):
        """Same mean rate, fatter bursts: the batch law must hurt.
        (The physics the axis exists to expose.)"""
        base = conf_spec("uniform", "hypercube", horizon=300.0,
                         replications=3)
        bursty = conf_spec("bursty", "hypercube", horizon=300.0,
                           replications=3, extra={"burst": 8.0})
        assert measure(bursty).mean_delay > measure(base).mean_delay


class TestCustomTrafficPlugin:
    """End-to-end: a third-party law registered at runtime drives the
    full stack (spec validation, both engine routes, the cache)."""

    @pytest.fixture
    def shift_law(self):
        @register_traffic
        class ShiftTraffic(TrafficPlugin):
            name = "shift1"
            aliases = ("succ",)
            summary = "toy law: everyone targets node (x + 1) mod n"

            def destination_law(self, spec, network):
                class _Shift:
                    def __init__(self, n):
                        self.n = n

                    def sample_destinations(self, origins, rng=None):
                        return (np.asarray(origins, dtype=np.int64) + 1) % self.n

                return _Shift(network.num_sources(spec))

        yield ShiftTraffic
        unregister_traffic("shift1")

    def test_runs_on_two_networks(self, shift_law):
        for network in ("hypercube", "ring"):
            spec = ScenarioSpec(
                name="toy", network=network, traffic="succ",
                d=4, lam=0.3, horizon=60.0, replications=2,
            )
            assert spec.traffic == "shift1"
            m = measure(spec)
            assert m.num_packets > 0
            out = run_spec(spec, 3, keep_record=True)
            n = spec.network_plugin.num_sources(spec)
            wl = spec.network_plugin.build_workload(spec)
            s = wl.generate(30.0, as_generator(0))
            np.testing.assert_array_equal(
                s.destinations, (s.origins + 1) % n
            )
            assert out.num_packets > 0

    def test_unregistered_rejected_again(self, shift_law):
        unregister_traffic("shift1")
        with pytest.raises(ConfigurationError, match="shift1"):
            ScenarioSpec(name="x", traffic="shift1", rho=0.5)
        register_traffic(shift_law)  # restore for fixture teardown


class TestCustomNetworkWorkloadOverride:
    """A network that overrides build_workload stays authoritative on
    both the single-sample and the batch generation routes."""

    def test_override_wins_on_batch_route(self):
        from repro.networks import NetworkPlugin

        calls = []

        class Overriding(NetworkPlugin):
            name = "override-probe"

            def build_workload(self, spec):
                from repro.traffic.destinations import UniformNodeLaw
                from repro.traffic.workload import NodePoissonWorkload

                calls.append("build")
                return NodePoissonWorkload(8, 0.3, UniformNodeLaw(8))

            def build_topology(self, spec):
                from repro.topology.ring import Ring

                return Ring(8)

        plugin = Overriding()
        spec = ScenarioSpec(name="x", d=3, lam=0.3, horizon=30.0)
        gens = [as_generator(s) for s in replication_seeds(0, 2, "spawn")]
        samples = plugin.build_workload_batch(spec, 30.0, gens)
        assert calls  # went through the override, not the traffic axis
        assert len(samples) == 2


def test_no_traffic_literals_outside_traffic_package():
    """Grep-style guard: the tentpole's deliverable is that traffic
    dispatch lives in src/repro/traffic/ alone.  Any ``traffic ==``
    (or ``== spec.traffic``) literal elsewhere — or a surviving
    ``option("law")`` relic — is a regression to the closed law enum."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert src.is_dir()
    pattern = re.compile(
        r"""(\btraffic\s*==\s*["'])|(["']\s*==\s*spec\.traffic)"""
        r"""|(option\(\s*["']law["'])"""
    )
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if "traffic" in path.relative_to(src).parts[:1]:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(src)}:{lineno}: {line.strip()}")
    assert not offenders, "traffic literals outside repro.traffic:\n" + "\n".join(
        offenders
    )
