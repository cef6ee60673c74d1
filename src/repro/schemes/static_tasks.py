"""Static routing tasks (§1.2 context): one-shot permutations.

The dynamic problem of the paper sits on a literature of *static* tasks
— route one permutation, all packets released at t = 0, measure the
completion time.  This module provides the two schemes the paper's
survey contrasts:

* :func:`route_permutation_greedy` — direct greedy dimension-order
  routing of a permutation.  Completion is O(d) for random
  permutations but Theta(2^{d/2}) for adversarial ones (bit reversal) —
  the Borodin–Hopcroft phenomenon;
* :func:`route_permutation_valiant` — the [VaB81] two-phase randomised
  algorithm (random intermediates, both phases dimension order):
  O(d) completion with high probability for *every* permutation.

Both run on the fixed-point path engine (phase 2 reuses low dimensions,
so the combined system is not levelled), over paths from
:func:`repro.sim.eventsim.hypercube_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.sim.eventsim import hypercube_paths
from repro.sim.fixedpoint import simulate_paths_fixed_point
from repro.topology.hypercube import Hypercube

__all__ = [
    "StaticRunResult",
    "route_permutation_greedy",
    "route_permutation_valiant",
]


@dataclass(frozen=True)
class StaticRunResult:
    """Outcome of a one-shot routing task."""

    delivery: np.ndarray
    hops: np.ndarray

    @property
    def completion_time(self) -> float:
        """Time the last packet arrives (the task's makespan)."""
        return float(self.delivery.max()) if self.delivery.shape[0] else 0.0

    @property
    def mean_delay(self) -> float:
        return float(self.delivery.mean()) if self.delivery.shape[0] else 0.0


def _validate_perm(cube: Hypercube, perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    n = cube.num_nodes
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ConfigurationError(f"perm must be a permutation of range({n})")
    return perm


def route_permutation_greedy(
    cube: Hypercube, perm: np.ndarray
) -> StaticRunResult:
    """Route packet x -> perm[x] for every node, all released at t = 0,
    via canonical dimension-order paths."""
    perm = _validate_perm(cube, perm)
    n = cube.num_nodes
    paths = hypercube_paths(cube.d, np.arange(n), perm)
    res = simulate_paths_fixed_point(cube.num_arcs, np.zeros(n), paths)
    return StaticRunResult(res.delivery, res.hops)


def route_permutation_valiant(
    cube: Hypercube, perm: np.ndarray, rng: SeedLike = None
) -> StaticRunResult:
    """[VaB81]: route via uniform random intermediates, both phases in
    dimension order.  O(d) completion w.h.p. for any permutation."""
    perm = _validate_perm(cube, perm)
    gen = as_generator(rng)
    n = cube.num_nodes
    intermediates = gen.integers(0, n, size=n, dtype=np.int64)
    paths = hypercube_paths(cube.d, np.arange(n), intermediates, perm)
    res = simulate_paths_fixed_point(cube.num_arcs, np.zeros(n), paths)
    return StaticRunResult(res.delivery, res.hops)


# ---------------------------------------------------------------------------
# scenario-runner plugins
# ---------------------------------------------------------------------------

from typing import TYPE_CHECKING

from repro.plugins.api import Capabilities, OptionSpec, Runner, SchemePlugin
from repro.plugins.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ScenarioSpec

_PERM_OPTION = OptionSpec(
    "perm",
    kind="str",
    default="random",
    choices=("random", "bitrev"),
    description="which permutation to route (fresh uniform draw, or bit reversal)",
)


class _StaticTaskPlugin(SchemePlugin):
    """Shared one-shot permutation machinery: no arrival process (the
    spec takes neither rho nor lam), every packet released at t = 0,
    and the makespan rides along as a side metric.

    RNG contract (golden-pinned): with ``perm="random"`` the stream
    first draws the permutation; the Valiant variant then draws its
    random intermediates.
    """

    capabilities = Capabilities(
        networks=("hypercube",),
        options=(_PERM_OPTION,),
        metrics=("makespan",),
        static=True,
    )

    def _route(self, cube: Hypercube, perm: np.ndarray, gen) -> StaticRunResult:
        raise NotImplementedError  # pragma: no cover - protocol

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        from repro.sim.measurement import DelayRecord
        from repro.sim.run_spec import ReplicationOutput
        from repro.traffic.destinations import bit_reversal_permutation

        cube = Hypercube(spec.d)
        which = spec.option("perm", "random")

        def run(gen):
            if which == "bitrev":
                perm = bit_reversal_permutation(spec.d)
            else:
                perm = gen.permutation(cube.num_nodes)
            result = self._route(cube, perm, gen)
            n = cube.num_nodes
            record = DelayRecord(
                np.zeros(n), result.delivery, max(result.completion_time, 1.0)
            )
            return ReplicationOutput(
                result.mean_delay,
                n,
                (("makespan", result.completion_time),),
                record,
            )

        return run


@register_scheme
class StaticGreedyPlugin(_StaticTaskPlugin):
    name = "static_greedy"
    summary = "one-shot permutation via direct greedy routing (§1.2)"

    def _route(self, cube, perm, gen):
        return route_permutation_greedy(cube, perm)


@register_scheme
class StaticValiantPlugin(_StaticTaskPlugin):
    name = "static_valiant"
    summary = "one-shot permutation via Valiant–Brebner two-phase routing"

    def _route(self, cube, perm, gen):
        return route_permutation_valiant(cube, perm, gen)
