"""Tests for the capability-declaring engine-plugin API and registry.

Covers the registry (decorator registration, aliases, reserved
directives, entry points), spec-side engine normalisation and
admissibility, the resolution rules (auto / vectorized / forced), the
engine-scoped option schema, the replication-batched fast path
(bit-identity of a batch of R against R sequential runs, through the
engine hook, the parallel runner, and the per-replication cache), and
a grep-style guard that no ``engine ==`` literal survives outside
``src/repro/engines/``.
"""

import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from repro.engines import (
    EngineCapabilities,
    EnginePlugin,
    all_engine_names,
    available_engines,
    canonical_engine_name,
    declared_engine_names,
    get_engine,
    iter_engines,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.engines import registry as engine_registry
from repro.errors import ConfigurationError
from repro.rng import replication_seeds
from repro.runner import ResultsStore, ScenarioSpec, measure
from repro.sim.run_spec import run_spec

ALL_BUILTINS = {"feedforward", "fixedpoint"}


def greedy_spec(network: str = "hypercube", **overrides) -> ScenarioSpec:
    params = dict(
        name=f"eng-{network}",
        network=network,
        d={"hypercube": 4, "butterfly": 3, "ring": 4, "torus": 2}[network],
        rho=0.7,
        horizon=150.0,
        replications=1,
        base_seed=13,
        seed_policy="sequential",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(available_engines()) == ALL_BUILTINS

    def test_aliases_resolve(self):
        for alias in ("event", "eventsim", "calendar"):
            assert canonical_engine_name(alias) == "fixedpoint"
        assert canonical_engine_name("ff") == "feedforward"
        assert canonical_engine_name("fixed-point") == "fixedpoint"
        assert get_engine("fp") is get_engine("fixedpoint")
        assert set(all_engine_names()) >= ALL_BUILTINS | {"auto", "vectorized"}

    def test_unknown_engine_enumerates_registry(self):
        with pytest.raises(ConfigurationError, match="feedforward"):
            get_engine("quantum")

    def test_iter_engines_sorted_with_metadata(self):
        plugins = iter_engines()
        names = [p.name for p in plugins]
        assert names == sorted(names)
        for p in plugins:
            assert p.summary
            assert p.capabilities.kind in ("levelled", "fixed-point")

    def test_reserved_directives_not_registrable(self):
        class Auto(EnginePlugin):
            name = "auto"
            capabilities = EngineCapabilities(kind="fixed-point")

        with pytest.raises(ConfigurationError, match="reserved"):
            register_engine(Auto)

        class Vec(EnginePlugin):
            name = "myengine"
            aliases = ("vectorized",)
            capabilities = EngineCapabilities(kind="fixed-point")

        with pytest.raises(ConfigurationError, match="reserved"):
            register_engine(Vec)

    def test_register_requires_protocol_and_kind(self):
        with pytest.raises(ConfigurationError, match="EnginePlugin"):
            register_engine(object())  # type: ignore[arg-type]

        for kind in ("magic", "event"):

            class BadKind(EnginePlugin):
                name = "badkind"
                capabilities = EngineCapabilities(kind=kind)

            with pytest.raises(
                ConfigurationError, match="one of levelled, fixed-point"
            ):
                register_engine(BadKind)

    def test_register_requires_a_run_hook(self):
        """simulate and batch_deliveries each default to the other, so
        an engine implementing neither is refused, not left to recurse
        on its first sample."""

        class Hookless(EnginePlugin):
            name = "hookless"
            capabilities = EngineCapabilities(kind="fixed-point")

        with pytest.raises(ConfigurationError, match="neither simulate"):
            register_engine(Hookless)
        assert "hookless" not in available_engines()

    def test_runtime_register_unregister_roundtrip(self):
        class Toy(EnginePlugin):
            name = "toyengine"
            aliases = ("toy",)
            summary = "test double"
            capabilities = EngineCapabilities(kind="fixed-point")

            def simulate(self, spec, topology, sample): ...

        register_engine(Toy)
        try:
            assert get_engine("toy").name == "toyengine"
            register_engine(Toy)  # idempotent re-registration
            with pytest.raises(ConfigurationError, match="already registered"):
                class Usurper(EnginePlugin):
                    name = "toyengine"
                    capabilities = EngineCapabilities(kind="fixed-point")

                    def simulate(self, spec, topology, sample): ...

                register_engine(Usurper)
        finally:
            unregister_engine("toyengine")
        with pytest.raises(ConfigurationError):
            get_engine("toyengine")

    def test_entry_point_group_name(self):
        assert engine_registry.ENTRY_POINT_GROUP == "repro.engine_plugins"


class TestSpecNormalisation:
    def test_alias_normalised_before_hashing(self):
        canonical = greedy_spec(engine="fixedpoint")
        for alias in ("event", "eventsim", "calendar"):
            via_alias = greedy_spec(engine=alias)
            assert via_alias.engine == "fixedpoint"
            assert via_alias.content_hash() == canonical.content_hash()
            assert via_alias.replication_hash() == canonical.replication_hash()

    def test_directives_pass_through(self):
        assert greedy_spec().engine == "auto"
        assert greedy_spec(engine="vectorized").engine == "vectorized"

    def test_unknown_engine_enumerates_vocabulary(self):
        with pytest.raises(ConfigurationError, match="auto"):
            greedy_spec(engine="warp")


class TestResolution:
    def test_auto_resolves_to_network_native(self):
        assert resolve_engine(greedy_spec()).name == "feedforward"
        assert resolve_engine(greedy_spec("butterfly")).name == "feedforward"
        assert resolve_engine(greedy_spec("ring")).name == "fixedpoint"
        assert resolve_engine(greedy_spec("torus")).name == "fixedpoint"

    def test_vectorized_resolves_per_network(self):
        assert (
            resolve_engine(greedy_spec(engine="vectorized")).name
            == "feedforward"
        )
        assert (
            resolve_engine(greedy_spec("ring", engine="vectorized")).name
            == "fixedpoint"
        )

    def test_forced_name_resolves_to_itself(self):
        assert (
            resolve_engine(greedy_spec(engine="feedforward")).name
            == "feedforward"
        )
        assert (
            resolve_engine(greedy_spec(engine="fixedpoint")).name
            == "fixedpoint"
        )

    def test_scheme_owned_loops_resolve_to_none(self):
        spec = ScenarioSpec(name="x", scheme="deflection", lam=0.5)
        assert resolve_engine(spec) is None

    def test_path_schemes_declare_native_fixedpoint(self):
        for scheme in ("random_order", "twophase"):
            spec = ScenarioSpec(name="x", scheme=scheme, rho=0.5)
            assert resolve_engine(spec).name == "fixedpoint"

    def test_declared_engine_names_canonicalise(self):
        assert declared_engine_names(("eventsim", "vectorized", "fp")) == (
            "fixedpoint",
            "vectorized",
        )

    def test_unregistered_declared_engine_does_not_poison_the_rest(self):
        """A scheme may declare a companion engine whose distribution is
        not installed; forcing one of its *registered* engines must
        still work, and the declaration must survive enumeration."""
        from repro.plugins import get_plugin, register_scheme, unregister_scheme

        greedy = type(get_plugin("greedy"))

        class CompanionGreedy(greedy):
            name = "companion_greedy"
            capabilities = greedy.capabilities.__class__(
                networks=("*",),
                engines=("fixedpoint", "companion-engine"),
                disciplines=("fifo", "ps"),
                network_options=True,
            )

        register_scheme(CompanionGreedy)
        try:
            assert declared_engine_names(("fixedpoint", "companion-engine")) == (
                "fixedpoint",
                "companion-engine",
            )
            spec = ScenarioSpec(
                name="x", scheme="companion_greedy", d=3, rho=0.5,
                horizon=80.0, engine="fixedpoint",
            )
            assert run_spec(spec, 0).num_packets > 0
            with pytest.raises(ConfigurationError, match="companion-engine"):
                ScenarioSpec(name="x", scheme="companion_greedy", d=3,
                             rho=0.5, engine="companion-engine")
        finally:
            unregister_scheme("companion_greedy")


class TestAdmissibility:
    def test_feedforward_rejected_on_non_levelled_network(self):
        with pytest.raises(ConfigurationError, match="level-sweep"):
            greedy_spec("ring", engine="feedforward")
        with pytest.raises(ConfigurationError, match="level-sweep"):
            greedy_spec("torus", engine="ff")

    def test_fixedpoint_allowed_on_levelled_network(self):
        """Forcing the fixed-point solver onto the levelled hypercube is
        a legitimate cross-validation axis: the unique consistent
        sample path is the feed-forward one, bit for bit (FIFO)."""
        base = greedy_spec()
        ff = run_spec(base, base.base_seed, keep_record=True)
        fp = run_spec(
            base.replace(engine="fixedpoint"), base.base_seed, keep_record=True
        )
        assert np.array_equal(fp.record.delivery, ff.record.delivery)
        assert fp.mean_delay == ff.mean_delay

    def test_undeclared_engine_rejected_with_enumeration(self):
        with pytest.raises(ConfigurationError, match="admissible engines: fixedpoint"):
            ScenarioSpec(name="x", scheme="random_order", rho=0.5,
                         engine="feedforward")
        # its declared engine, under any spelling, is accepted
        for engine in ("fixedpoint", "event"):
            spec = ScenarioSpec(name="x", scheme="random_order", rho=0.5,
                                engine=engine)
            assert resolve_engine(spec).name == "fixedpoint"

    def test_chunk_packets_option_scoped_to_feedforward(self):
        spec = greedy_spec(extra={"chunk_packets": 500})
        assert spec.option("chunk_packets") == 500
        # the fixed-point engine declares no such option
        with pytest.raises(ConfigurationError, match="chunk_packets"):
            greedy_spec(engine="fixedpoint", extra={"chunk_packets": 500})
        # and the schema is typed
        with pytest.raises(ConfigurationError, match="int"):
            greedy_spec(extra={"chunk_packets": "lots"})

    def test_dim_order_needs_the_levelled_sweep(self):
        order = (3, 1, 0, 2)
        ok = greedy_spec(extra={"dim_order": order})
        assert ok.option("dim_order") == order
        with pytest.raises(ConfigurationError, match="vectorized-engine"):
            greedy_spec(engine="fixedpoint", extra={"dim_order": order})


BATCHED_CELLS = [
    greedy_spec(),
    greedy_spec(discipline="ps", rho=0.6),
    greedy_spec("butterfly"),
    greedy_spec("butterfly", discipline="ps"),
    greedy_spec("ring"),
    greedy_spec("ring", discipline="ps", rho=0.6),
    greedy_spec("torus"),
    greedy_spec(engine="fixedpoint"),
    greedy_spec(engine="fixedpoint", discipline="ps", rho=0.6),
]


class TestBatchedFastPath:
    @pytest.mark.parametrize(
        "spec", BATCHED_CELLS,
        ids=lambda s: f"{s.network}-{s.discipline}-{s.engine}",
    )
    def test_batch_bit_identical_to_sequential(self, spec):
        """A batch of R replications equals R sequential runs exactly —
        the contract the per-replication cache cells rely on."""
        reps = 5
        spec = spec.replace(replications=reps)
        runner = spec.plugin.batch_runner(spec)
        assert runner is not None
        seeds = replication_seeds(spec.base_seed, reps, spec.seed_policy)
        batched = runner(seeds)
        sequential = [run_spec(spec, seed) for seed in seeds]
        assert batched == sequential  # exact: dataclass equality on floats

    def test_event_engine_batches(self):
        """``event`` names the fixed-point engine: R replications share
        one solve via arc-id offsetting."""
        spec = greedy_spec(engine="event")
        assert get_engine("event") is get_engine("fixedpoint")
        assert spec.plugin.batch_runner(spec) is not None

    def test_measure_routes_agree(self):
        """One replication per task (wave_reps=1) equals the stacked
        default, pooled CI and all, at every jobs level."""
        spec = greedy_spec(replications=6, seed_policy="spawn")
        baseline = measure(spec, jobs=1, wave_reps=1)
        assert measure(spec, jobs=1) == baseline
        assert measure(spec, jobs=2) == baseline

    def test_batched_cache_cells_interchangeable(self, tmp_path):
        """Cells written by one stacked range are read back by
        one-replication tasks and vice versa — the ranges share
        physics."""
        spec = greedy_spec(replications=4)
        batched_store = ResultsStore(tmp_path / "batched")
        pooled_store = ResultsStore(tmp_path / "pooled")
        batched = measure(spec, store=batched_store)
        pooled = measure(spec, store=pooled_store, wave_reps=1)
        assert batched == pooled
        for k in range(spec.replications):
            a = batched_store.load_replication(spec, k)
            b = pooled_store.load_replication(spec, k)
            assert a == b

    def test_growing_replications_batches_only_missing(self, tmp_path):
        spec = greedy_spec(replications=2)
        store = ResultsStore(tmp_path)
        first = measure(spec, store=store)
        grown = measure(spec.replace(replications=6), store=store)
        assert grown.replication_delays[:2] == first.replication_delays

    def test_seed_chunking_preserves_order(self):
        from repro.runner.engine import _chunk_bounds

        bounds = _chunk_bounds(17, jobs=4)
        assert [k for lo, hi in bounds for k in range(lo, hi)] == list(range(17))
        assert len(bounds) == 4  # one range per worker: nobody idles
        assert _chunk_bounds(17, jobs=1) == [(0, 17)]
        # more workers than seeds: one replication per range
        assert _chunk_bounds(2, jobs=8) == [(0, 1), (1, 2)]
        # wave_reps caps every range, still covering 0..n-1 in order
        capped = _chunk_bounds(10, 2, wave_reps=3)
        assert [k for lo, hi in capped for k in range(lo, hi)] == list(range(10))
        assert all(hi - lo <= 3 for lo, hi in capped)


class TestCustomEngineEndToEnd:
    """A third-party engine drives the greedy scheme without touching
    any repro module — the tentpole promise on the engine axis."""

    @pytest.fixture()
    def echo_engine(self):
        @register_engine
        class EchoEngine(EnginePlugin):
            name = "echo"
            aliases = ("free-flow",)
            summary = "zero-contention toy: delivery = birth + hops"
            capabilities = EngineCapabilities(kind="fixed-point")

            def simulate(self, spec, topology, sample):
                paths = spec.network_plugin.greedy_paths(
                    topology, spec, sample
                )
                hops = np.array([len(p) for p in paths], dtype=float)
                return np.asarray(sample.times, dtype=float) + hops

        yield EchoEngine
        unregister_engine("echo")

    @pytest.fixture()
    def echo_spec(self, echo_engine):
        from repro.plugins import get_plugin, register_scheme, unregister_scheme

        # widen greedy's declared engines through a subclass double so
        # the built-in plugin object stays untouched
        greedy = type(get_plugin("greedy"))

        class OpenGreedy(greedy):
            name = "open_greedy"
            capabilities = greedy.capabilities.__class__(
                networks=("*",),
                engines=("vectorized", "echo"),
                disciplines=("fifo", "ps"),
                network_options=True,
            )

        register_scheme(OpenGreedy)
        try:
            yield ScenarioSpec(
                name="echo-toy", scheme="open_greedy", d=3, rho=0.4,
                horizon=80.0, replications=1, engine="free-flow",
            )
        finally:
            unregister_scheme("open_greedy")

    def test_forced_custom_engine_runs(self, echo_spec):
        spec = echo_spec
        assert spec.engine == "echo"
        out = run_spec(spec, 0, keep_record=True)
        # zero contention: every delay is exactly the hop count
        delays = out.record.delivery - out.record.birth
        assert np.all(delays >= 0)
        assert np.allclose(delays, np.round(delays))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="an engine registered at run time reaches pool workers by fork only",
    )
    def test_simulate_only_engine_runs_through_measure(self, echo_spec):
        """An engine implementing only ``simulate`` gets the derived
        ``batch_deliveries`` (one ``simulate`` per sample): it runs
        through measure in process and across the pool, with the same
        replications as one run_spec each."""
        spec = echo_spec.replace(replications=3)
        seeds = replication_seeds(spec.base_seed, 3, spec.seed_policy)
        expected = tuple(run_spec(spec, seed).mean_delay for seed in seeds)
        for jobs in (1, 2):
            assert measure(spec, jobs=jobs).replication_delays == expected


def test_no_engine_literals_outside_engines_package():
    """Grep-style guard: the tentpole's deliverable is that engine
    dispatch lives in src/repro/engines/ alone.  Any ``engine ==`` (or
    ``!=``) literal comparison elsewhere in the library is a regression
    to the closed string enum."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert src.is_dir()
    pattern = re.compile(
        r"""(\bengine\s*[!=]=\s*["'])|(["']\s*[!=]=\s*(spec\.)?engine\b)"""
    )
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if "engines" in path.relative_to(src).parts[:1]:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(
                    f"{path.relative_to(src)}:{lineno}: {line.strip()}"
                )
    assert not offenders, "engine literals outside repro.engines:\n" + "\n".join(
        offenders
    )
