"""The engine axis of the plugin registry (:class:`repro.registry.Registry`).

Replaces the ``engine == "..."`` string branches that used to be
scattered through the scheme adapters, the spec validation and the CLI.
This module is the **only** place in the library allowed to compare
engine names: everything else goes through :func:`resolve_engine` /
:func:`check_forced_engine` (enforced by a grep-style test, as for
networks).

Two spellings are *reserved* and can never name a registered engine:
``"auto"`` (the scheme's native engine; for greedy, whatever the
network plugin declares native) and ``"vectorized"`` (the network's
native *vectorised* engine: the level sweep on levelled networks, the
fixed-point solver elsewhere).  Both are selection directives rather
than engines, so they pass through :func:`normalize_engine_name`
unchanged and resolve per spec in :func:`resolve_engine`.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Optional, Tuple

from repro.engines.api import ENGINE_KINDS, EnginePlugin
from repro.errors import ConfigurationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plugins.api import SchemePlugin
    from repro.runner.spec import ScenarioSpec

__all__ = [
    "register_engine",
    "unregister_engine",
    "get_engine",
    "iter_engines",
    "available_engines",
    "all_engine_names",
    "canonical_engine_name",
    "normalize_engine_name",
    "declared_engine_names",
    "resolve_engine",
    "check_forced_engine",
    "ENTRY_POINT_GROUP",
    "RESERVED_ENGINE_NAMES",
    "ENGINES",
]

ENTRY_POINT_GROUP = "repro.engine_plugins"

#: selection directives, not engines; never registrable
RESERVED_ENGINE_NAMES = ("auto", "vectorized")


def _check_engine(plugin: EnginePlugin) -> None:
    caps = getattr(plugin, "capabilities", None)
    if caps is None:
        raise ConfigurationError(f"engine {plugin.name!r} declares no capabilities")
    if caps.kind not in ENGINE_KINDS:
        raise ConfigurationError(
            f"engine {plugin.name!r}: unknown kind {caps.kind!r} "
            f"(one of {', '.join(ENGINE_KINDS)})"
        )
    for reserved in RESERVED_ENGINE_NAMES:
        if reserved == plugin.name or reserved in plugin.aliases:
            raise ConfigurationError(
                f"engine name {reserved!r} is reserved (it is a selection "
                "directive, resolved per spec)"
            )
    # each hook of the pair defaults to the other: an engine with
    # neither would recurse on its first sample
    cls = type(plugin)
    if (
        cls.simulate is EnginePlugin.simulate
        and cls.batch_deliveries is EnginePlugin.batch_deliveries
    ):
        raise ConfigurationError(
            f"engine {plugin.name!r} implements neither simulate nor "
            "batch_deliveries"
        )


ENGINES: Registry[EnginePlugin] = Registry(
    "engine",
    EnginePlugin,
    (
        "repro.engines.feedforward",
        "repro.engines.fixedpoint",
    ),
    ENTRY_POINT_GROUP,
    validate=_check_engine,
    unknown=(
        "unknown engine {name!r}; registered engines: {known} "
        f"(plus the directives {', '.join(RESERVED_ENGINE_NAMES)})"
    ),
)

register_engine = ENGINES.register
unregister_engine = ENGINES.unregister
get_engine = ENGINES.get
canonical_engine_name = ENGINES.canonical
iter_engines = ENGINES.plugins
available_engines = ENGINES.names
declared_engine_names = functools.partial(ENGINES.declared, keep=RESERVED_ENGINE_NAMES)


def all_engine_names() -> Tuple[str, ...]:
    """Sorted canonical names, aliases *and* directives (the full
    ``ScenarioSpec.engine`` vocabulary)."""
    return tuple(sorted({*ENGINES.all_names(), *RESERVED_ENGINE_NAMES}))


def normalize_engine_name(name: str) -> str:
    """The spelling a :class:`~repro.runner.spec.ScenarioSpec` stores.

    The reserved directives pass through unchanged (they resolve per
    spec); anything else is canonicalised through the registry
    (**before** content-hashing, so an alias and its canonical name
    always share one cache cell) or rejected with an enumerating
    error.
    """
    if name in RESERVED_ENGINE_NAMES:
        return name
    return canonical_engine_name(name)


def resolve_engine(spec: "ScenarioSpec") -> Optional[EnginePlugin]:
    """The engine plugin that runs *spec*, or ``None`` when the scheme
    owns its whole simulation loop.

    ``"auto"`` asks the scheme plugin
    (:meth:`~repro.plugins.api.SchemePlugin.native_engine`);
    ``"vectorized"`` asks the network plugin
    (:meth:`~repro.networks.api.NetworkPlugin.native_engine`: always a
    vectorised engine, the level sweep on levelled networks and the
    fixed-point solver elsewhere); a concrete name looks itself up.
    """
    name: Optional[str] = spec.engine
    if name == "auto":
        name = spec.plugin.native_engine(spec)
        if name is None:
            return None
    elif name == "vectorized":
        name = spec.network_plugin.native_engine()
    return get_engine(name)


def check_forced_engine(plugin: "SchemePlugin", spec: "ScenarioSpec") -> None:
    """Validate ``spec.engine`` against the scheme's declared engines
    and the resolved engine's own capabilities.

    Called from :meth:`repro.plugins.api.SchemePlugin.validate`; raises
    :class:`~repro.errors.ConfigurationError` with enumerating
    messages.  ``engine="auto"`` (the native engine) is always
    admissible by name, but the engine it resolves to must still
    support the spec (an engine-scoped option may be out of range), so
    a spec that could only fail once it runs is refused when it is
    built.
    """
    caps = plugin.capabilities
    if spec.engine != "auto" and spec.engine not in declared_engine_names(
        caps.engines
    ):
        admissible = ", ".join(caps.engines) or "(none)"
        raise ConfigurationError(
            f"scheme {plugin.name!r} cannot be forced onto engine "
            f"{spec.engine!r}; admissible engines: {admissible} "
            "(engine='auto' always works)"
        )
    engine = resolve_engine(spec)
    if engine is None:  # the scheme owns its simulation loop
        return
    reason = engine.supports(spec)
    if reason is not None:
        raise ConfigurationError(
            f"engine {engine.name!r} cannot run this spec: {reason}"
        )
