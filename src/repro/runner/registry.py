"""The name-based scenario registry.

Every workload the repository measures is a named, frozen
:class:`~repro.runner.spec.ScenarioSpec`.  The built-in catalog below
covers every scheme, every network *and every traffic law* in the
library — greedy routing on all four topologies (hypercube, butterfly,
ring, torus; FIFO and PS, native and forced engines), the permutation
family (bit reversal, transpose, bit complement), hot-spot and bursty
workloads, the slotted variant, two-phase Valiant mixing, the §2.3
pipelined-batch baseline, hot-potato deflection, per-packet random
order, and the static one-shot permutation tasks — so ``python -m
repro list-scenarios`` doubles as a map of the reproduction.

Benchmarks and examples derive their grids from these entries via
:meth:`ScenarioSpec.replace`, keeping every protocol decision (warm-up
windows, seed policy, horizons) in one reviewable place.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.runner.spec import ScenarioSpec

__all__ = ["register", "get_scenario", "list_scenarios", "scenario_names"]

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add *spec* to the registry under ``spec.name``."""
    if not spec.name:
        raise ConfigurationError("a registered scenario needs a name")
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def list_scenarios() -> List[ScenarioSpec]:
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

_BUILTINS = [
    ScenarioSpec(
        name="smoke",
        d=3,
        rho=0.5,
        horizon=120.0,
        replications=2,
        description="tiny fast cell for CI smoke tests",
    ),
    ScenarioSpec(
        name="hypercube-greedy-light",
        d=6,
        rho=0.3,
        description="greedy d-cube routing far from saturation (Props 12/13)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-mid",
        d=6,
        rho=0.7,
        description="greedy d-cube routing at moderate load (Props 12/13)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-heavy",
        d=5,
        rho=0.95,
        horizon=3000.0,
        description="heavy traffic: (1-rho)T inside the §3.3 window",
    ),
    ScenarioSpec(
        name="hypercube-greedy-ps",
        discipline="ps",
        d=5,
        rho=0.7,
        description="network Q-tilde: every arc served Processor Sharing (§3.3)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-event",
        engine="fixedpoint",
        d=4,
        rho=0.7,
        description="greedy forced onto the fixed-point engine (cross-validates the level sweep)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-antipodal",
        d=5,
        rho=0.7,
        p=1.0,
        description="p=1 endpoint: disjoint paths, exact delay formula (§3.3)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-bitrev",
        d=6,
        lam=0.4,
        traffic="bitrev",
        description="direct greedy under bit-reversal traffic — saturated arcs (§5)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-transpose",
        d=6,
        lam=0.3,
        horizon=250.0,
        traffic="transpose",
        description="direct greedy under matrix-transpose traffic (the "
        "other classic hard permutation)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-bitcomp",
        d=6,
        lam=0.5,
        traffic="bitcomp",
        description="bit-complement traffic: every packet crosses all d "
        "dimensions (constant all-ones mask)",
    ),
    ScenarioSpec(
        name="hypercube-greedy-hotspot",
        d=6,
        lam=0.3,
        traffic="hotspot",
        extra={"beta": 0.15},
        description="hot-spot traffic: 15% of packets target node 0 — "
        "its incoming arcs saturate first",
    ),
    ScenarioSpec(
        name="hypercube-greedy-bursty",
        d=5,
        rho=0.6,
        traffic="bursty",
        extra={"burst": 4.0},
        description="compound-Poisson batch arrivals at unchanged mean "
        "rate: delay driven by variance, not rho",
    ),
    ScenarioSpec(
        name="hypercube-greedy-bursty-onoff",
        d=5,
        rho=0.5,
        traffic="bursty",
        extra={"mode": "onoff", "duty": 0.3},
        description="on-off modulated Poisson arrivals (30% duty cycle "
        "at triple the ON rate)",
    ),
    ScenarioSpec(
        name="hypercube-slotted",
        scheme="slotted",
        d=5,
        rho=0.75,
        extra={"tau": 0.5},
        description="§3.4 slotted time: T <= dp/(1-rho) + tau",
    ),
    ScenarioSpec(
        name="hypercube-random-order",
        scheme="random_order",
        d=5,
        rho=0.8,
        horizon=700.0,
        description="E13 ablation: per-packet random dimension order (fixed-point engine)",
    ),
    ScenarioSpec(
        name="hypercube-twophase",
        scheme="twophase",
        d=5,
        lam=0.5,
        description="Valiant two-phase mixing under uniform traffic (§5)",
    ),
    ScenarioSpec(
        name="hypercube-twophase-bitrev",
        scheme="twophase",
        d=6,
        lam=0.4,
        horizon=200.0,
        traffic="bitrev",
        description="two-phase mixing neutralises bit-reversal traffic (§5 / E18)",
    ),
    ScenarioSpec(
        name="hypercube-twophase-hotspot",
        scheme="twophase",
        d=5,
        lam=0.4,
        horizon=200.0,
        traffic="hotspot",
        extra={"beta": 0.2},
        description="mixing spreads a 20% hot spot over both phases "
        "(stability no longer law-dependent)",
    ),
    ScenarioSpec(
        name="hypercube-twophase-bursty",
        scheme="twophase",
        d=5,
        lam=0.4,
        horizon=200.0,
        traffic="bursty",
        extra={"burst": 3.0},
        description="two-phase mixing under compound-Poisson batch "
        "arrivals: bursts survive mixing, hot arcs do not",
    ),
    ScenarioSpec(
        name="hypercube-pipelined-batch",
        scheme="pipelined_batch",
        d=5,
        rho=0.05,
        description="§2.3 non-greedy baseline: stable only for rho = O(1/d)",
    ),
    ScenarioSpec(
        name="hypercube-deflection",
        scheme="deflection",
        d=5,
        lam=0.8,
        horizon=600.0,
        description="hot-potato baseline in the spirit of [GrH89] (E14)",
    ),
    ScenarioSpec(
        name="butterfly-greedy-mid",
        network="butterfly",
        d=4,
        rho=0.7,
        description="greedy butterfly routing at moderate load (Props 14/17)",
    ),
    ScenarioSpec(
        name="butterfly-greedy-asym",
        network="butterfly",
        d=4,
        rho=0.7,
        p=0.3,
        description="asymmetric p: straight arcs are the bottleneck (Prop 15)",
    ),
    ScenarioSpec(
        name="butterfly-greedy-event",
        network="butterfly",
        engine="fixedpoint",
        d=3,
        rho=0.7,
        description="greedy butterfly forced onto the fixed-point engine (cross-validates §4)",
    ),
    ScenarioSpec(
        name="butterfly-greedy-event-ps",
        network="butterfly",
        engine="fixedpoint",
        discipline="ps",
        d=3,
        rho=0.6,
        description="butterfly PS servers, forced onto the fixed-point engine (§4.3 R-tilde)",
    ),
    ScenarioSpec(
        name="butterfly-greedy-transpose",
        network="butterfly",
        d=4,
        lam=0.4,
        horizon=250.0,
        traffic="transpose",
        description="matrix-transpose rows through the butterfly: the "
        "unique §4.1 paths collide level by level",
    ),
    ScenarioSpec(
        name="butterfly-greedy-hotspot",
        network="butterfly",
        d=4,
        lam=0.3,
        horizon=250.0,
        traffic="hotspot",
        extra={"beta": 0.2},
        description="hot output row on the butterfly: the last-level "
        "arc into the hot row is the bottleneck",
    ),
    ScenarioSpec(
        name="ring-greedy",
        network="ring",
        d=5,
        rho=0.7,
        description="Papillon-style greedy on the 32-ring (absolute distance)",
    ),
    ScenarioSpec(
        name="ring-greedy-ps",
        network="ring",
        discipline="ps",
        d=4,
        rho=0.6,
        horizon=200.0,
        description="16-ring with every arc served Processor Sharing",
    ),
    ScenarioSpec(
        name="ring-greedy-clockwise",
        network="ring",
        d=4,
        rho=0.7,
        extra={"direction": "clockwise"},
        description="the unidirectional ring: clockwise-only greedy variant",
    ),
    ScenarioSpec(
        name="ring-greedy-event",
        network="ring",
        engine="fixedpoint",
        d=4,
        rho=0.7,
        horizon=200.0,
        description="ring greedy forced onto the fixed-point engine, its native one",
    ),
    ScenarioSpec(
        name="torus-greedy",
        network="torus",
        d=2,
        rho=0.7,
        description="dimension-order greedy on the 4x4 torus "
        "(Dietzfelbinger-Woelfel grids)",
    ),
    ScenarioSpec(
        name="torus-greedy-ps",
        network="torus",
        discipline="ps",
        d=2,
        rho=0.6,
        horizon=300.0,
        description="4x4 torus with Processor-Sharing arcs",
    ),
    ScenarioSpec(
        name="torus-greedy-event",
        network="torus",
        engine="fixedpoint",
        d=2,
        rho=0.7,
        horizon=200.0,
        description="torus greedy forced onto the fixed-point engine, its native one",
    ),
    ScenarioSpec(
        name="ring-greedy-hotspot",
        network="ring",
        d=4,
        lam=0.2,
        horizon=200.0,
        traffic="hotspot",
        extra={"beta": 0.25},
        description="hot node on the 16-ring: its two incoming arcs "
        "carry a quarter of all flow",
    ),
    ScenarioSpec(
        name="torus-greedy-hotspot",
        network="torus",
        d=2,
        lam=0.25,
        horizon=200.0,
        traffic="hotspot",
        extra={"beta": 0.2},
        description="hot node on the 4x4 torus under dimension-order "
        "greedy (node-addressed hot-spot law)",
    ),
    ScenarioSpec(
        name="static-greedy-bitrev",
        scheme="static_greedy",
        d=6,
        horizon=1.0,
        warmup_fraction=0.0,
        cooldown_fraction=0.0,
        replications=1,
        extra={"perm": "bitrev"},
        description="one-shot bit reversal: the Theta(2^{d/2}) greedy blow-up",
    ),
    ScenarioSpec(
        name="static-valiant-bitrev",
        scheme="static_valiant",
        d=6,
        horizon=1.0,
        warmup_fraction=0.0,
        cooldown_fraction=0.0,
        extra={"perm": "bitrev"},
        description="[VaB81] two-phase one-shot routing: O(d) makespan w.h.p.",
    ),
]

for _spec in _BUILTINS:
    register(_spec)
del _spec
