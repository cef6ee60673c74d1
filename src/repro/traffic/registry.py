"""The traffic axis of the plugin registry (:class:`repro.registry.Registry`).

Replaces the ``law``-selection branches that used to be hard-wired in
the network plugins and the scheme adapters.  This package is the
**only** place in the library allowed to compare traffic names:
everything else goes through :func:`get_traffic` /
:func:`canonical_traffic_name` (enforced by a grep-style test, as for
networks and engines).  :class:`~repro.runner.spec.ScenarioSpec` stores
and content-hashes the canonical spelling (``"uniform"`` for
``"bernoulli"``), and :func:`merge_legacy_law` folds the retired
``extra={"law": ...}`` option into the same cell.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError
from repro.registry import Registry
from repro.traffic.api import TrafficPlugin

__all__ = [
    "register_traffic",
    "unregister_traffic",
    "get_traffic",
    "iter_traffics",
    "available_traffics",
    "all_traffic_names",
    "canonical_traffic_name",
    "declared_traffic_names",
    "merge_legacy_law",
    "ENTRY_POINT_GROUP",
    "TRAFFICS",
]

ENTRY_POINT_GROUP = "repro.traffic_plugins"

#: the retired ``extra={"law": ...}`` vocabulary of the pre-axis
#: hypercube network option, mapped onto the traffic axis so old specs
#: keep constructing (and share cache cells with the new spelling)
_LEGACY_LAWS = {"bernoulli": "uniform", "bitrev": "bitrev"}

TRAFFICS: Registry[TrafficPlugin] = Registry(
    "traffic",
    TrafficPlugin,
    (
        "repro.traffic.uniform",
        "repro.traffic.permutations",
        "repro.traffic.hotspot",
        "repro.traffic.bursty",
    ),
    ENTRY_POINT_GROUP,
    unknown="unknown traffic {name!r}; registered traffic laws: {known}",
)

register_traffic = TRAFFICS.register
unregister_traffic = TRAFFICS.unregister
get_traffic = TRAFFICS.get
canonical_traffic_name = TRAFFICS.canonical
iter_traffics = TRAFFICS.plugins
available_traffics = TRAFFICS.names
all_traffic_names = TRAFFICS.all_names
declared_traffic_names = functools.partial(TRAFFICS.declared, keep=("*",))


def merge_legacy_law(traffic: str, law: object) -> str:
    """Fold the retired ``extra={"law": ...}`` option into the traffic
    axis: the canonical traffic name the pair resolves to, or an error
    when the two disagree.

    Called from :class:`~repro.runner.spec.ScenarioSpec` normalisation
    **before** content-hashing, so a legacy spelling and its traffic-axis
    twin always share one cache cell.
    """
    mapped = _LEGACY_LAWS.get(law)
    if mapped is None:
        known = ", ".join(sorted(_LEGACY_LAWS))
        raise ConfigurationError(
            f"unknown legacy destination law {law!r} (one of {known}); "
            "prefer the traffic axis: ScenarioSpec(traffic=...) with one "
            f"of {', '.join(available_traffics())}"
        )
    canonical = canonical_traffic_name(traffic)
    if canonical not in {canonical_traffic_name("uniform"), mapped}:
        raise ConfigurationError(
            f"legacy option law={law!r} maps to traffic {mapped!r}, which "
            f"contradicts the spec's traffic {canonical!r}; drop the law "
            "option and keep the traffic field"
        )
    return mapped
