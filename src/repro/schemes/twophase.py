"""Two-phase randomised routing (Valiant mixing) — the paper's §5 remedy.

For an *arbitrary* destination pattern, greedy dimension-order routing
can be terrible: deterministic permutations such as bit reversal pile
``Theta(2^{d/2})`` canonical paths onto single arcs, so the system
saturates at ``lam = Theta(2^{-d/2})``.  The paper's concluding remarks
(§5), following [Val82]/[VaB81], suggest *mixing*: send each packet
first to a uniformly random intermediate node (phase 1), then on to its
true destination (phase 2), both phases greedy dimension-order.

Whatever the destination pattern, each phase presents uniform-random
masks, so every arc carries total flow at most ``lam`` — two-phase
routing is stable for all ``lam < 1``, at the price of roughly doubling
the mean path length (``d`` instead of ``d/2`` hops under uniform
traffic).  Exactly the trade the paper describes: better worst-case
stability, worse constant under benign traffic.

The combined (phase-1 + phase-2) system is *not* levelled — phase-2
packets revisit low dimensions while phase-1 packets are still using
them — so this scheme runs on the fixed-point path engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.sim.eventsim import hypercube_paths
from repro.sim.fixedpoint import (
    FixedPointResult,
    simulate_paths_fixed_point,
    simulate_paths_fixed_point_batch,
)
from repro.sim.measurement import DelayRecord
from repro.topology.hypercube import Hypercube
from repro.traffic.workload import TrafficSample

__all__ = ["TwoPhaseScheme", "TwoPhaseResult"]


@dataclass(frozen=True)
class TwoPhaseResult:
    """Outcome of a two-phase run."""

    sample: TrafficSample
    result: FixedPointResult
    intermediates: np.ndarray

    def delay_record(self) -> DelayRecord:
        return DelayRecord(
            self.sample.times, self.result.delivery, self.sample.horizon
        )

    def mean_hops(self) -> float:
        return float(self.result.hops.mean()) if len(self.result.hops) else 0.0


@dataclass(frozen=True)
class TwoPhaseScheme:
    """Valiant two-phase routing on the d-cube.

    ``law`` may be *any* destination sampler (translation invariant or
    not — permutations, hot spots, ...): the point of the scheme is
    that stability no longer depends on it.  Callers that draw their
    workload elsewhere (the scenario runner's traffic axis, bursty
    arrival processes) may omit the law and hand pre-sampled traffic
    to :meth:`route` directly.
    """

    d: int
    lam: float
    law: object = None  # anything with .d and .sample_destinations
    cube: Hypercube = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cube", Hypercube(self.d))
        if self.lam <= 0.0:
            raise ConfigurationError(f"lam must be > 0, got {self.lam}")
        if self.law is not None and getattr(self.law, "d", None) != self.d:
            raise ConfigurationError(
                f"law dimension {getattr(self.law, 'd', None)} != {self.d}"
            )

    @property
    def stability_limit(self) -> float:
        """Two-phase arcs carry flow ``lam`` regardless of the law:
        stable iff ``lam < 1``."""
        return 1.0

    @property
    def stable(self) -> bool:
        return self.lam < self.stability_limit

    def expected_hops(self) -> float:
        """Mean path length: ``d/2`` per phase with uniform mixing."""
        return float(self.d)

    def route(self, sample: TrafficSample, rng: SeedLike = None) -> TwoPhaseResult:
        """Pick uniform intermediates for pre-sampled traffic and route
        both phases.

        RNG contract: consumes exactly one ``integers`` draw of
        ``sample.num_packets`` intermediates from the stream — drawn
        *after* whatever sampled the workload, matching the historical
        consumption order bit for bit.
        """
        gen = as_generator(rng)
        intermediates = gen.integers(
            0, self.cube.num_nodes, size=sample.num_packets, dtype=np.int64
        )
        paths = hypercube_paths(
            self.d, sample.origins, intermediates, sample.destinations
        )
        result = simulate_paths_fixed_point(
            self.cube.num_arcs, sample.times, paths
        )
        return TwoPhaseResult(sample, result, intermediates)

    def run(self, horizon: float, rng: SeedLike = None) -> TwoPhaseResult:
        """Sample traffic, pick uniform intermediates, route both phases."""
        if self.law is None:
            raise ConfigurationError(
                "run() needs a destination law; either construct the "
                "scheme with one or pre-sample traffic and call route()"
            )
        gen = as_generator(rng)
        from repro.traffic.arrivals import merged_poisson_arrivals

        times, origins = merged_poisson_arrivals(
            self.cube.num_nodes, self.lam, horizon, gen
        )
        dests = np.asarray(
            self.law.sample_destinations(origins, gen), dtype=np.int64
        )
        sample = TrafficSample(times, origins, dests, float(horizon))
        return self.route(sample, gen)

    def measure_delay(
        self, horizon: float, rng: SeedLike = None, warmup_fraction: float = 0.2
    ) -> float:
        return self.run(horizon, rng).delay_record().mean_delay(warmup_fraction)


def direct_greedy_arc_loads(cube: Hypercube, law, lam: float) -> np.ndarray:
    """Exact per-arc flow of *direct* greedy routing under any traffic.

    For deterministic or sampled laws this evaluates the canonical-path
    flow each arc receives per unit time (``lam`` per origin spread
    along its canonical path) — the quantity whose maximum decides
    direct-greedy stability.  Exact for :class:`PermutationTraffic`;
    for stochastic laws it returns the expectation computed from a
    large destination sample.
    """
    n = cube.num_nodes
    perm = getattr(law, "perm", None)
    if perm is not None:
        origins, dests, share = np.arange(n, dtype=np.int64), perm, lam
    else:
        # stochastic law: Monte-Carlo expectation over destinations
        reps = 200
        origins = np.repeat(np.arange(n, dtype=np.int64), reps)
        dests = law.sample_destinations(origins, 12345)
        share = lam / reps
    arcs = hypercube_paths(cube.d, origins, dests).flat
    # one addition per hop, in the packets' order
    return np.bincount(
        arcs, weights=np.full(arcs.shape, share), minlength=cube.num_arcs
    )


__all__.append("direct_greedy_arc_loads")


# ---------------------------------------------------------------------------
# scenario-runner plugin
# ---------------------------------------------------------------------------

from typing import TYPE_CHECKING

from repro.plugins.api import (
    Capabilities,
    Runner,
    SchemePlugin,
    steady_output,
)
from repro.plugins.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ScenarioSpec


@register_scheme
class TwoPhasePlugin(SchemePlugin):
    """Valiant two-phase mixing: route via a uniform random intermediate,
    both phases greedy.  On the fixed-point path engine (phase 2
    revisits low dimensions), FIFO, with the realised mean hop count as
    a side metric."""

    name = "twophase"
    summary = "Valiant two-phase mixing against adversarial traffic (§5)"
    capabilities = Capabilities(
        networks=("hypercube",),
        engines=("fixedpoint",),
        # mixing exists precisely to neutralise the traffic pattern, so
        # the scheme runs under every registered law — permutations,
        # hot spots, bursty arrivals, third-party plugins
        traffics=("*",),
        metrics=("mean_hops",),
    )

    def native_engine(self, spec: "ScenarioSpec"):
        return "fixedpoint"

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        # the traffic axis samples the workload; the scheme only draws
        # the intermediates and routes (RNG order: workload first, then
        # intermediates — the historical order, golden-pinned)
        workload = spec.network_plugin.build_workload(spec)
        scheme = TwoPhaseScheme(d=spec.d, lam=spec.resolved_lam)

        def run(gen):
            sample = workload.generate(spec.horizon, gen)
            result = scheme.route(sample, gen)
            return steady_output(
                spec,
                result.delay_record(),
                metrics=(("mean_hops", result.mean_hops()),),
            )

        return run

    def batch_runner(self, spec: "ScenarioSpec"):
        """Stack R replications into one fixed-point solve.

        Same seed-for-seed contract as :meth:`prepare`: each stream
        draws its workload (via ``build_workload_batch``), then its
        intermediates, then the R path sets run as one arc-offset
        batch.  The ``mean_hops`` side metric is recomputed per
        replication from the flat paths — bit-identical to the
        sequential ``TwoPhaseResult.mean_hops``.  At ``jobs > 1``
        each worker runs this on its own contiguous seed range.
        """
        from repro.engines.api import batch_output

        scheme = TwoPhaseScheme(d=spec.d, lam=spec.resolved_lam)

        def run_batch(seeds):
            gens = [as_generator(seed) for seed in seeds]
            samples = spec.network_plugin.build_workload_batch(
                spec, spec.horizon, gens
            )
            paths = []
            for sample, gen in zip(samples, gens):
                intermediates = gen.integers(
                    0, scheme.cube.num_nodes,
                    size=sample.num_packets, dtype=np.int64,
                )
                paths.append(
                    hypercube_paths(
                        spec.d, sample.origins, intermediates,
                        sample.destinations,
                    )
                )
            deliveries = simulate_paths_fixed_point_batch(
                scheme.cube.num_arcs,
                [sample.times for sample in samples],
                paths,
            )
            outputs = []
            for sample, delivery, fp in zip(samples, deliveries, paths):
                hops = fp.hops()
                mean_hops = float(hops.mean()) if len(hops) else 0.0
                outputs.append(
                    batch_output(
                        spec, sample, delivery,
                        metrics=(("mean_hops", mean_hops),),
                    )
                )
            return outputs

        return run_batch
