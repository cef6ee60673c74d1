"""One plugin registry, shared by the scheme, network, engine and traffic
axes.

Each axis module builds one :class:`Registry` and binds its public names
to it (``get_network = NETWORKS.get``, ...).  A registry is filled from
three sources:

1. **Built-ins**: the modules named at construction, imported lazily on
   the first lookup; each registers its plugins at import time through
   the axis's ``register_*`` decorator.
2. **Entry points**: a third-party distribution declares, e.g.::

       [project.entry-points."repro.network_plugins"]
       mynet = "mypkg.networks:MyNetworkPlugin"

   and is discovered through :mod:`importlib.metadata` without this
   repository knowing about it.  A broken entry point emits a warning
   instead of taking the registry down.
3. **Runtime**: tests and notebooks call ``register_*`` /
   ``unregister_*`` directly.

Lookups accept **aliases** (``"cube"`` for ``"hypercube"``), and every
unknown-name error enumerates what *is* registered, so a typo is
self-diagnosing.
"""

from __future__ import annotations

import warnings
from importlib import import_module
from typing import Callable, Dict, Generic, Iterable, List, Optional, Tuple, Type, TypeVar, Union

from repro.errors import ConfigurationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """The plugins of one axis, by canonical name and alias.

    *kind* labels every message (``"network"``); *base* is the class a
    plugin must be an instance of; importing *modules* registers the
    built-ins; *group* is the entry-point group.  *validate* raises
    :class:`~repro.errors.ConfigurationError` when a new plugin breaks
    an axis rule of its own.  *unknown* formats the unknown-name error
    from ``name`` and ``known`` (the sorted canonical names).  An axis
    whose specs store names verbatim sets *aliased* false: its plugins'
    aliases are then ignored, since an alias would split cache cells.
    """

    def __init__(
        self,
        kind: str,
        base: type,
        modules: Tuple[str, ...],
        group: str,
        *,
        validate: Optional[Callable[[T], None]] = None,
        unknown: Optional[str] = None,
        aliased: bool = True,
    ) -> None:
        self.kind = kind
        self.base = base
        self.modules = modules
        self.group = group
        self._validate = validate
        self._unknown = unknown or (
            f"unknown {kind} {{name!r}}; registered {kind}s: {{known}}"
        )
        self._aliased = aliased
        self._plugins: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}  # alias -> canonical name
        self._loaded = False
        self._loading = False

    def _aliases_of(self, plugin: T) -> Tuple[str, ...]:
        return tuple(getattr(plugin, "aliases", ())) if self._aliased else ()

    def register(
        self, plugin: Union[T, Type[T]], *, overwrite: bool = False
    ) -> Union[T, Type[T]]:
        """Register a plugin (usable as a class decorator).

        Accepts an instance or a plugin class (instantiated with no
        arguments) and returns its argument unchanged, so it composes
        as ``@register_*`` above a class definition.  Registering the
        same class again is a no-op; replacing a plugin of another
        class under the same name takes ``overwrite=True``.
        """
        instance = plugin() if isinstance(plugin, type) else plugin
        if not isinstance(instance, self.base):
            raise ConfigurationError(
                f"{instance!r} does not implement the {self.base.__name__} protocol"
            )
        if not instance.name:
            raise ConfigurationError(f"every {self.kind} plugin needs a non-empty name")
        if self._validate is not None:
            self._validate(instance)
        existing = self._plugins.get(instance.name)
        if existing is not None and not overwrite:
            if type(existing) is type(instance):
                return plugin  # idempotent re-import of the same plugin
            raise ConfigurationError(
                f"{self.kind} {instance.name!r} is already registered by "
                f"{type(existing).__name__} (pass overwrite=True to replace it)"
            )
        aliases = self._aliases_of(instance)
        for alias in aliases:
            # an alias may never shadow a canonical name, nor an alias a
            # *different* plugin owns: overwrite only replaces same-name
            # registrations, it does not license alias theft
            if alias in self._plugins or self._aliases.get(alias, instance.name) != instance.name:
                raise ConfigurationError(
                    f"alias {alias!r} of {self.kind} {instance.name!r} collides "
                    f"with an existing {self.kind} name or alias"
                )
        if existing is not None:
            self.unregister(existing.name)  # releases its old aliases
        self._plugins[instance.name] = instance
        self._aliases.update(dict.fromkeys(aliases, instance.name))
        return plugin

    def unregister(self, name: str) -> None:
        """Remove a plugin and the aliases it owns (primarily for tests)."""
        plugin = self._plugins.pop(name, None)
        if plugin is not None:
            for alias in self._aliases_of(plugin):
                if self._aliases.get(alias) == name:
                    del self._aliases[alias]

    def _load_entry_points(self) -> None:
        from importlib import metadata

        for ep in metadata.entry_points(group=self.group):
            if ep.name in self._plugins or ep.name in self._aliases:
                continue  # built-ins (or an earlier entry point) win
            try:
                self.register(ep.load())
            except Exception as exc:  # noqa: BLE001 - isolate bad third parties
                warnings.warn(
                    f"{self.kind} plugin entry point {ep.name!r} failed to load: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            return
        self._loading = True  # re-entrancy guard, cleared on failure so a
        try:  # broken import can be fixed and retried within the process
            for module in self.modules:
                import_module(module)
            self._load_entry_points()
            self._loaded = True
        finally:
            self._loading = False

    def get(self, name: str) -> T:
        """The plugin registered under *name* (canonical or alias), or an
        enumerating error."""
        self._ensure_loaded()
        plugin = self._plugins.get(self._aliases.get(name, name))
        if plugin is None:
            known = ", ".join(sorted(self._plugins)) or "(none)"
            raise ConfigurationError(self._unknown.format(name=name, known=known))
        return plugin

    def canonical(self, name: str) -> str:
        """Resolve *name* (canonical or alias) to the canonical name."""
        return self.get(name).name

    def plugins(self) -> List[T]:
        """All registered plugins, sorted by canonical name."""
        self._ensure_loaded()
        return [self._plugins[name] for name in sorted(self._plugins)]

    def names(self) -> Tuple[str, ...]:
        """Sorted canonical names of every registered plugin."""
        self._ensure_loaded()
        return tuple(sorted(self._plugins))

    def all_names(self) -> Tuple[str, ...]:
        """Sorted canonical names *and* aliases (the CLI vocabulary)."""
        self._ensure_loaded()
        return tuple(sorted({*self._plugins, *self._aliases}))

    def declared(self, names: Iterable[str], keep: Tuple[str, ...] = ()) -> Tuple[str, ...]:
        """Canonicalise a scheme's declared capability tuple: names in
        *keep* pass through, aliases collapse to canonical names, and
        duplicates drop.

        A declared name no plugin answers to is kept verbatim rather
        than raised on: a scheme may declare a companion plugin whose
        distribution is not installed, and that must not poison the
        plugins that *are* registered (nor the ``repro`` listings)."""
        canonical = []
        for name in names:
            try:
                canonical.append(name if name in keep else self.canonical(name))
            except ConfigurationError:
                canonical.append(name)
        return tuple(dict.fromkeys(canonical))
