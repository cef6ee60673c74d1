"""Engine plugin for the vectorised fixed-point solver.

Wraps :func:`repro.sim.fixedpoint.simulate_paths_fixed_point`, which
solves *non-levelled* networks (ring, torus, any third-party topology
shipping only ``greedy_paths``) with the feed-forward engine's
vectorised kernels and no event calendar: FIFO in one time-ordered
pass that serves every hop row once, PS by sweeping to a consistent
sample path.  The event engine runs this engine's code under its own
name.  On a levelled network it reproduces the feed-forward engine's
sample path bit for bit — forcing ``engine="fixedpoint"`` on the
hypercube is a legitimate cross-validation axis (tested).

The engine owns one typed option, ``max_sweeps`` — the PS sweep
ceiling past which a far-above-saturation system raises
:class:`~repro.errors.SimulationError` instead of returning an
unconverged path.  FIFO makes one pass and needs no ceiling.

**Batching**: R replications' path sets stack with arc ids offset by
``replication * num_arcs``, so one solve settles R disjoint
sub-systems at once, each bit-identical to its sequential run.  Under
PS a replication's sub-system iterates independently of the others
(its chained rows and dirty arcs never cross the offset boundary), and
once it converges its rows drop out of the remaining sweeps entirely
(rep-blocked convergence, made observable by
``FixedPointResult.sweep_rows``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.engines.api import EngineCapabilities, EnginePlugin
from repro.engines.registry import register_engine
from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["FixedPointEngine"]


@register_engine
class FixedPointEngine(EnginePlugin):
    name = "fixedpoint"
    aliases = ("fixed-point", "fp")
    summary = "vectorised fixed-point solver for non-levelled networks"
    capabilities = EngineCapabilities(
        kind="fixed-point",
        disciplines=("fifo", "ps"),
        networks=("*",),
        batching=True,
        options=(
            OptionSpec(
                "max_sweeps",
                kind="int",
                description="PS sweep ceiling before a far-above-"
                "saturation system raises SimulationError "
                "(default: scales with the hop count); FIFO makes "
                "one pass",
            ),
        ),
    )

    @staticmethod
    def _max_sweeps(spec: "ScenarioSpec"):
        value = spec.option("max_sweeps")
        return None if value is None else int(value)

    def simulate(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        sample: "TrafficSample",
    ) -> "np.ndarray":
        paths = spec.network_plugin.greedy_paths(topology, spec, sample)
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        return simulate_paths_fixed_point(
            topology.num_arcs,
            sample.times,
            paths,
            discipline=spec.discipline,
            max_sweeps=self._max_sweeps(spec),
        ).delivery

    def run_paths(
        self,
        num_arcs: int,
        birth_times: "np.ndarray",
        paths: Sequence[Sequence[int]],
        *,
        discipline: str = "fifo",
        service: float = 1.0,
    ) -> "np.ndarray":
        from repro.sim.fixedpoint import simulate_paths_fixed_point

        return simulate_paths_fixed_point(
            num_arcs,
            birth_times,
            paths,
            discipline=discipline,
            service=service,
        ).delivery

    def batch_deliveries(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        samples: List["TrafficSample"],
    ) -> List["np.ndarray"]:
        from repro.sim.fixedpoint import simulate_paths_fixed_point_batch

        net = spec.network_plugin
        return simulate_paths_fixed_point_batch(
            topology.num_arcs,
            [s.times for s in samples],
            [net.greedy_paths(topology, spec, s) for s in samples],
            discipline=spec.discipline,
            max_sweeps=self._max_sweeps(spec),
        )
