"""Tests for the scenario registry + parallel experiment engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import replication_seeds
from repro.runner import (
    ScenarioSpec,
    ResultsStore,
    get_scenario,
    list_scenarios,
    measure,
    measure_many,
    register,
    run_replication,
    scenario_names,
    theory_bounds,
)
from repro.runner.results import measurement_from_dict, measurement_to_dict
from repro.sim.run_spec import run_spec

SMOKE = get_scenario("smoke")


class TestScenarioSpec:
    def test_rho_lam_exclusivity(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", rho=0.5, lam=1.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x")

    def test_static_schemes_take_no_rate(self):
        spec = ScenarioSpec(name="x", scheme="static_greedy")
        assert np.isnan(spec.resolved_lam)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", scheme="static_greedy", rho=0.5)

    def test_resolved_lam_both_ways(self):
        by_rho = ScenarioSpec(name="x", d=4, rho=0.6, p=0.5)
        by_lam = ScenarioSpec(name="x", d=4, lam=1.2, p=0.5)
        assert by_rho.resolved_lam == pytest.approx(1.2)
        assert by_lam.resolved_rho == pytest.approx(0.6)
        bf = ScenarioSpec(name="x", network="butterfly", d=4, rho=0.7, p=0.3)
        assert bf.resolved_lam == pytest.approx(0.7 / 0.7)

    def test_replace_swaps_parameterisation(self):
        spec = ScenarioSpec(name="x", rho=0.5)
        swapped = spec.replace(lam=1.0)
        assert swapped.rho is None and swapped.lam == 1.0
        back = swapped.replace(rho=0.8)
        assert back.lam is None and back.rho == 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", rho=0.5, network="mesh-of-trees")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", rho=0.5, scheme="magic")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", rho=0.5, replications=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", rho=0.5, warmup_fraction=0.8,
                         cooldown_fraction=0.3)
        with pytest.raises(ConfigurationError):
            # only the plain greedy scheme exists on the butterfly
            ScenarioSpec(name="x", network="butterfly", scheme="deflection",
                         lam=0.5)

    def test_extra_is_frozen_and_sorted(self):
        spec = ScenarioSpec(
            name="x", rho=0.5,
            extra={"beta": 0.2, "dim_order": [1, 0, 2, 3]},
            traffic="hotspot",
        )
        assert spec.extra == (("beta", 0.2), ("dim_order", (1, 0, 2, 3)))
        assert spec.option("beta") == 0.2
        assert spec.option("missing", 7) == 7
        assert hash(spec)  # stays hashable
        # the legacy law spelling folds into the traffic axis and out
        # of extra (so both spellings share one cache cell)
        legacy = ScenarioSpec(name="x", rho=0.5, extra={"law": "bernoulli"})
        assert legacy.traffic == "uniform"
        assert legacy.extra == ()

    def test_unknown_option_enumerates_schema(self):
        # tau belongs to the slotted scheme, not greedy; the error must
        # say which options greedy does declare
        with pytest.raises(ConfigurationError, match="dim_order"):
            ScenarioSpec(name="x", rho=0.5, extra={"tau": 0.5})

    def test_option_values_are_typed(self):
        with pytest.raises(ConfigurationError, match="bernoulli"):
            # the legacy law vocabulary is enumerated on a miss
            ScenarioSpec(name="x", rho=0.5, extra={"law": "weird"})
        with pytest.raises(ConfigurationError, match="float"):
            ScenarioSpec(name="x", scheme="slotted", rho=0.5,
                         extra={"tau": "long"})

    def test_roundtrip_dict(self):
        spec = ScenarioSpec(name="x", scheme="slotted", d=5, rho=0.7,
                            extra={"tau": 0.25})
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_roundtrip_dict_with_nested_tuple_options(self):
        """to_dict emits extra values as (nested) lists; feeding them
        back through from_dict must reproduce the spec exactly —
        including through an actual JSON round trip."""
        import json

        spec = ScenarioSpec(
            name="x", d=4, rho=0.7, extra={"dim_order": (3, 1, 0, 2)}
        )
        payload = spec.to_dict()
        assert payload["extra"]["dim_order"] == [3, 1, 0, 2]
        again = ScenarioSpec.from_dict(payload)
        assert again == spec and hash(again) == hash(spec)
        via_json = ScenarioSpec.from_dict(json.loads(json.dumps(payload)))
        assert via_json == spec
        assert via_json.content_hash() == spec.content_hash()

    def test_content_hash_ignores_labels(self):
        a = ScenarioSpec(name="a", rho=0.5, description="one")
        b = ScenarioSpec(name="b", rho=0.5, description="two")
        c = ScenarioSpec(name="a", rho=0.6)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()
        # a copy of a hashed spec computes its own hash
        assert a.replace(rho=0.6).content_hash() == c.content_hash()

    @pytest.mark.parametrize(
        "name, content, replication",
        [
            ("smoke", "2d409ef157809b97318f", "9db25992a726b788911b"),
            ("hypercube-greedy-mid", "eb9394ffc6a04c5ba7b3",
             "63f574d048240fc89a17"),
            ("butterfly-greedy-mid", "4cb3df8af783999bccfd",
             "e8677d57d6150b96668b"),
        ],
    )
    def test_cache_keys_are_pinned(self, name, content, replication):
        """Literal keys of existing caches: a change to ``to_dict`` or
        the hash payload that moves them orphans every stored cell."""
        spec = get_scenario(name).replace(replications=2, horizon=40.0)
        assert spec.content_hash() == content
        assert spec.replication_hash() == replication


class TestRegistry:
    def test_every_scheme_is_reachable(self):
        """Acceptance: every scheme in repro/schemes (plus the core
        greedy and slotted paths) has at least one registered scenario."""
        covered = {s.scheme for s in list_scenarios()}
        assert {
            "greedy",
            "slotted",
            "random_order",
            "twophase",
            "pipelined_batch",
            "deflection",
            "static_greedy",
            "static_valiant",
        } <= covered

    def test_every_network_and_discipline_covered(self):
        from repro.networks import available_networks

        specs = list_scenarios()
        # the catalog exercises every registered network plugin
        assert set(available_networks()) == {s.network for s in specs}
        assert "ps" in {s.discipline for s in specs}

    def test_get_unknown_lists_names(self):
        with pytest.raises(ConfigurationError, match="smoke"):
            get_scenario("nope")

    def test_register_rejects_collisions(self):
        spec = SMOKE.replace(name="smoke")
        with pytest.raises(ConfigurationError):
            register(spec)
        register(spec, overwrite=True)  # idempotent with overwrite

    def test_names_sorted(self):
        names = scenario_names()
        assert names == sorted(names)
        assert "smoke" in names


class TestSeedPolicy:
    def test_sequential(self):
        assert replication_seeds(7, 3, "sequential") == [7, 8, 9]

    def test_spawn_is_deterministic_and_distinct(self):
        a = replication_seeds(7, 3, "spawn")
        b = replication_seeds(7, 3, "spawn")
        for sa, sb in zip(a, b):
            ga = np.random.default_rng(sa).random(4)
            gb = np.random.default_rng(sb).random(4)
            np.testing.assert_array_equal(ga, gb)
        streams = {tuple(np.random.default_rng(s).random(4)) for s in a}
        assert len(streams) == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            replication_seeds(0, 0)
        with pytest.raises(ValueError):
            replication_seeds(0, 2, "fancy")


class TestEngine:
    def test_jobs_do_not_change_the_numbers(self):
        """Acceptance: --jobs 4 == --jobs 1 bit for bit, per replication."""
        spec = SMOKE.replace(replications=4)
        serial = measure(spec, jobs=1)
        parallel = measure(spec, jobs=4)
        assert serial.replication_delays == parallel.replication_delays
        assert serial == parallel

    def test_pooled_ci_across_replications(self):
        m = measure(SMOKE.replace(replications=4), jobs=2)
        assert m.num_replications == 4
        reps = np.array(m.replication_delays)
        assert m.mean_delay == pytest.approx(reps.mean())
        assert m.ci is not None and m.ci.num_samples == 4
        assert m.ci.lo <= m.mean_delay <= m.ci.hi

    def test_single_replication_has_no_ci(self):
        m = measure(SMOKE.replace(replications=1))
        assert m.ci is None
        assert m.num_replications == 1

    def test_matches_run_spec_by_hand(self):
        spec = SMOKE.replace(replications=3)
        m = measure(spec, jobs=3)
        by_hand = [
            run_spec(spec, seed).mean_delay
            for seed in replication_seeds(spec.base_seed, 3, spec.seed_policy)
        ]
        assert list(m.replication_delays) == by_hand

    def test_run_replication_returns_record(self):
        out = run_replication(SMOKE, rep=1)
        assert out.record is not None
        assert out.record.num_packets == out.num_packets
        assert out.mean_delay == measure(SMOKE).replication_delays[1]

    def test_measure_many_flattens_and_regroups(self):
        specs = [
            SMOKE.replace(name=f"m{i}", base_seed=i, replications=2)
            for i in range(3)
        ]
        batched = measure_many(specs, jobs=4)
        single = [measure(s) for s in specs]
        assert batched == single

    def test_sequential_policy_matches_legacy_loop(self):
        """The migrated benchmarks' compatibility contract."""
        from repro.core.greedy import GreedyHypercubeScheme

        spec = SMOKE.replace(
            replications=1, seed_policy="sequential", base_seed=42
        )
        m = measure(spec)
        legacy = (
            GreedyHypercubeScheme(spec.d, spec.resolved_lam, spec.p)
            .run(spec.horizon, 42)
            .delay_record()
            .mean_delay(spec.warmup_fraction)
        )
        assert m.mean_delay == legacy

    def test_theory_bounds(self):
        lo, hi = theory_bounds(SMOKE)
        assert 0 < lo < hi < np.inf
        unstable = SMOKE.replace(rho=1.2)
        assert theory_bounds(unstable) == (-np.inf, np.inf)
        unbounded = get_scenario("hypercube-deflection")
        assert theory_bounds(unbounded) == (-np.inf, np.inf)

    def test_metric_pooling_averages_over_reporting_replications(self):
        """A side metric is the mean over the replications that carried
        it — a replication that reported no value for a key (e.g. a
        quantity undefined on its sample) must not drag the average
        toward zero."""
        from repro.runner.engine import _pool_measurement
        from repro.sim.run_spec import ReplicationOutput

        outputs = [
            ReplicationOutput(1.0, 10, (("hops", 4.0), ("rare", 8.0))),
            ReplicationOutput(2.0, 10, (("hops", 6.0),)),
            ReplicationOutput(3.0, 10, ()),
        ]
        m = _pool_measurement(SMOKE, outputs)
        assert dict(m.metrics) == {"hops": 5.0, "rare": 8.0}

    def test_metric_pooling_homogeneous_unchanged(self):
        """When every replication reports every key (the common case),
        pooling is the plain mean across all replications."""
        from repro.runner.engine import _pool_measurement
        from repro.sim.run_spec import ReplicationOutput

        outputs = [
            ReplicationOutput(1.0, 5, (("hops", 2.0),)),
            ReplicationOutput(2.0, 5, (("hops", 4.0),)),
        ]
        m = _pool_measurement(SMOKE, outputs)
        assert dict(m.metrics) == {"hops": 3.0}


class TestResultsStore:
    def test_cache_roundtrip(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        assert store.load(spec) is None
        first = measure(spec, store=store)
        assert store.contains(spec)
        assert len(store) == 1
        again = measure(spec, store=store)
        assert again == first

    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        measure(spec, store=store)

        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("cache miss: engine executed a task")

        monkeypatch.setattr("repro.runner.engine._run_task", boom)
        cached = measure(spec, store=store)
        assert cached.replication_delays is not None

    def test_refresh_recomputes(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        first = measure(spec, store=store)
        refreshed = measure(spec, store=store, refresh=True)
        assert refreshed == first  # deterministic, but recomputed

    def test_corrupt_cell_is_a_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        measure(spec, store=store)
        store.path_for(spec).write_text("{not json")
        assert store.load(spec) is None
        assert measure(spec, store=store) is not None

    def test_label_changes_share_a_cell(self, tmp_path):
        store = ResultsStore(tmp_path)
        a = SMOKE.replace(name="label-a", replications=2)
        b = a.replace(name="label-b", description="renamed")
        measure(a, store=store)
        assert store.contains(b)

    def test_growing_replications_reuses_cached_ones(self, tmp_path, monkeypatch):
        """Raising `replications` on a measured spec must simulate only
        the new replications: cells are keyed by (replication_hash, k)."""
        import repro.runner.engine as engine_mod

        store = ResultsStore(tmp_path)
        small = SMOKE.replace(replications=2)
        first = measure(small, store=store)

        executed = []
        real = engine_mod._run_task

        def counting(task):
            executed.append(task)
            return real(task)

        monkeypatch.setattr(engine_mod, "_run_task", counting)
        grown = measure(small.replace(replications=5), store=store)
        # replications 2, 3, 4 only (a "seq"/"batch" task's third slot
        # is its seed tuple — the batched route stacks several seeds
        # into one computation)
        assert sum(len(t[2]) for t in executed) == 3
        # the first two pooled estimates are the cached ones, bit for bit
        assert grown.replication_delays[:2] == first.replication_delays
        # and the pooled result equals a from-scratch computation
        fresh = measure(small.replace(replications=5))
        assert grown == fresh

    def test_replication_cells_survive_renames_and_count_changes(self, tmp_path):
        store = ResultsStore(tmp_path)
        a = SMOKE.replace(name="rep-a", replications=2)
        measure(a, store=store)
        b = a.replace(name="rep-b", description="renamed", replications=6)
        assert a.replication_hash() == b.replication_hash()
        for k in range(2):
            assert store.load_replication(b, k) is not None
        assert store.load_replication(b, 2) is None

    def test_corrupt_replication_cell_is_a_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        measure(spec, store=store)
        store.replication_path_for(spec, 0).write_text("{torn")
        assert store.load_replication(spec, 0) is None
        # and the engine recomputes through the corruption
        grown = measure(spec.replace(replications=3), store=store)
        assert grown == measure(spec.replace(replications=3))

    def test_refresh_overwrites_replication_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = SMOKE.replace(replications=2)
        measure(spec, store=store)
        mtime = store.replication_path_for(spec, 0).stat().st_mtime_ns
        measure(spec, store=store, refresh=True)
        assert store.replication_path_for(spec, 0).stat().st_mtime_ns > mtime

    def test_replication_cache_preserves_metrics(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = get_scenario("hypercube-twophase").replace(
            d=3, horizon=60.0, replications=2
        )
        direct = measure(spec)
        measure(spec, store=store)
        cached = store.load_replication(spec, 0)
        assert cached.metrics and cached.metrics[0][0] == "mean_hops"
        grown = measure(spec.replace(replications=3), store=store)
        assert grown.metric("mean_hops") == pytest.approx(
            measure(spec.replace(replications=3)).metric("mean_hops")
        )
        assert direct.replication_delays == grown.replication_delays[:2]

    def test_measurement_serialisation_handles_inf_nan(self):
        m = measure(get_scenario("static-greedy-bitrev").replace(d=3))
        again = measurement_from_dict(measurement_to_dict(m))
        assert again.lower_bound == -np.inf and again.upper_bound == np.inf
        assert np.isnan(again.rho) and np.isnan(again.lam)
        assert again.metric("makespan") == m.metric("makespan")


class TestCLI:
    def test_list_scenarios(self, capsys):
        from repro.__main__ import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "butterfly-greedy-mid" in out

    def test_run_and_cache(self, capsys, tmp_path):
        from repro.__main__ import main

        args = [
            "run", "smoke", "--replications", "2", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed with jobs=2" in first
        assert "per-replication T" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "results cache" in second

    def test_run_unknown_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown scenario")
        assert "smoke" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "option", ["nosuch=1", "nosuch", "chunk_packets=0"]
    )
    def test_run_bad_option_is_a_usage_error(self, capsys, option):
        """A bad ``--set`` exits 2 with one line, not 1 (a pooled mean
        outside its bracket) or a traceback."""
        from repro.__main__ import main

        args = ["run", "smoke", "--no-cache", "--set", option]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1

    def test_internal_errors_keep_their_traceback(self, monkeypatch):
        import repro.__main__ as cli
        from repro.errors import SimulationError

        def fail(*args, **kwargs):
            raise SimulationError("internal")

        monkeypatch.setattr(cli, "measure", fail)
        with pytest.raises(SimulationError, match="internal"):
            cli.main(["run", "smoke", "--no-cache"])
