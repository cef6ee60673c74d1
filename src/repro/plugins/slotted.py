"""Plugin for the §3.4 slotted-time greedy variant.

Packets wait for the next slot boundary before each hop; the vectorized
feed-forward engine handles the slotted workload directly (the dyadic
time grid keeps the shift arithmetic exact).  Each replication draws
its slotted sample and hands it to the resolved engine plugin, so the
engine's options (``chunk_packets``) apply.  The scheme owns a single
option — the slot length ``tau`` — and admits FIFO only, matching the
synchronous model of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plugins.api import Capabilities, OptionSpec, Runner, SchemePlugin, steady_output
from repro.plugins.registry import register_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ScenarioSpec

__all__ = ["SlottedPlugin"]


@register_scheme
class SlottedPlugin(SchemePlugin):
    name = "slotted"
    summary = "slotted-time greedy hypercube routing (§3.4)"
    capabilities = Capabilities(
        networks=("hypercube",),
        engines=("vectorized", "feedforward"),
        options=(
            OptionSpec(
                "tau",
                kind="float",
                default=0.5,
                description="slot length (the +tau term of the §3.4 bound)",
            ),
        ),
    )

    def native_engine(self, spec: "ScenarioSpec"):
        """The slotted workload rides the levelled level sweep (the
        dyadic time grid keeps the shift arithmetic exact)."""
        return "feedforward"

    def theory_bounds(self, spec: "ScenarioSpec"):
        """The §3.4 upper bound next to the Prop 13 lower bound.

        The scheme only admits ``traffic="uniform"`` (its capability
        declaration), so the eq. (1) closed forms always apply here.
        """
        import math

        from repro.core import bounds as B
        from repro.errors import UnstableSystemError

        lam, p, d = spec.resolved_lam, spec.p, spec.d
        tau = float(spec.option("tau", 0.5))
        try:
            return (
                B.greedy_delay_lower_bound(d, lam, p),
                B.slotted_delay_upper_bound(d, lam, p, tau),
            )
        except UnstableSystemError:
            return (-math.inf, math.inf)

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        from repro.engines.registry import resolve_engine
        from repro.sim.measurement import DelayRecord
        from repro.sim.slotted import SlottedGreedyHypercube

        scheme = SlottedGreedyHypercube(
            d=spec.d,
            lam=spec.resolved_lam,
            p=spec.p,
            tau=float(spec.option("tau", 0.5)),
        )
        engine = resolve_engine(spec)

        def run(gen):
            sample = scheme.workload().generate(spec.horizon, gen)
            delivery = engine.simulate(spec, scheme.cube, sample)
            return steady_output(
                spec, DelayRecord(sample.times, delivery, sample.horizon)
            )

        return run
