"""Declarative experiment scenarios.

A :class:`ScenarioSpec` freezes everything that determines one
measurement: the network, the routing scheme, the queueing discipline,
the operating point ``(d, rho-or-lam, p)``, the horizon and trimming
windows, the replication count, and the seed policy.  Specs are
immutable, hashable, picklable (they cross process boundaries in the
parallel engine) and content-addressed: :meth:`ScenarioSpec.content_hash`
keys the results cache, so two specs that would produce the same
numbers share one cache cell regardless of how they are named.

Scheme-specific knobs (slot length ``tau``, a fixed ``dim_order``, the
destination ``law``, the static ``perm``) travel in the ``extra``
mapping, stored as a sorted tuple of pairs (tuples all the way down)
to stay hashable.

Validation is **capability-driven along all four axes**: the scheme
resolves to a :class:`~repro.plugins.api.SchemePlugin` through the
scheme registry, the network to a
:class:`~repro.networks.api.NetworkPlugin` through the network
registry, the traffic law to a
:class:`~repro.traffic.api.TrafficPlugin` through the traffic
registry, and the engine to an
:class:`~repro.engines.api.EnginePlugin` through the engine registry,
and their declared capabilities decide which scheme x network x
traffic x engine x discipline x option combinations the spec may form
— so an invalid spec is rejected with a message enumerating what *is*
available.  There is no hard-coded scheme, network, traffic or engine
list here; registering a new plugin on any axis extends the accepted
vocabulary automatically.  Network, traffic and engine names are
normalised to their canonical spellings (aliases like ``"cube"``
resolve to ``"hypercube"``, ``"bernoulli"`` to ``"uniform"``,
``"event"`` to ``"fixedpoint"``) **before** content-hashing, so an alias
and its canonical name always share one cache cell — as does the
retired ``extra={"law": ...}`` spelling, which folds into the traffic
field during normalisation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "ScenarioSpec",
    "DISCIPLINES",
    "SEED_POLICIES",
]

DISCIPLINES = ("fifo", "ps")
#: ``spawn`` derives replication seeds via ``SeedSequence(base_seed).spawn``
#: (provably independent streams); ``sequential`` uses ``base_seed + k``,
#: matching the historical hand-rolled experiment loops bit for bit.
SEED_POLICIES = ("spawn", "sequential")

ExtraValue = Union[int, float, str, bool, Tuple[Any, ...]]


def _freeze_value(key: str, value: Any) -> ExtraValue:
    """Deep-freeze one option value: lists/tuples become tuples
    recursively, so every spec stays hashable and ``from_dict`` accepts
    what ``to_dict`` (or a JSON round trip) produced."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(key, x) for x in value)
    if not isinstance(value, (int, float, str, bool)):
        raise ConfigurationError(
            f"extra[{key!r}] must be a scalar or (nested) sequence of "
            f"scalars, got {type(value)}"
        )
    return value


def _thaw_value(value: Any) -> Any:
    """Inverse of :func:`_freeze_value` for serialisation: tuples become
    lists recursively (the JSON-native shape)."""
    if isinstance(value, tuple):
        return [_thaw_value(x) for x in value]
    return value


def _freeze_extra(
    extra: Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None],
) -> Tuple[Tuple[str, ExtraValue], ...]:
    if extra is None:
        return ()
    items = extra.items() if isinstance(extra, Mapping) else extra
    frozen = [(str(key), _freeze_value(key, value)) for key, value in items]
    frozen.sort()
    names = [k for k, _ in frozen]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate keys in extra: {names}")
    return tuple(frozen)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified experiment cell.

    Exactly one of ``rho`` (load factor) and ``lam`` (raw per-node
    rate) must be given for dynamic schemes; static schemes (one-shot
    permutation tasks, declared via their plugin's ``static``
    capability) take neither.
    """

    name: str
    network: str = "hypercube"
    scheme: str = "greedy"
    traffic: str = "uniform"
    discipline: str = "fifo"
    d: int = 4
    rho: Optional[float] = None
    lam: Optional[float] = None
    p: float = 0.5
    horizon: float = 400.0
    warmup_fraction: float = 0.2
    cooldown_fraction: float = 0.1
    replications: int = 4
    base_seed: int = 0
    seed_policy: str = "spawn"
    engine: str = "auto"
    extra: Tuple[Tuple[str, ExtraValue], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        from repro.engines.registry import normalize_engine_name
        from repro.networks.registry import get_network
        from repro.plugins.registry import get_plugin
        from repro.traffic.registry import canonical_traffic_name, merge_legacy_law

        object.__setattr__(self, "extra", _freeze_extra(self.extra))
        network = get_network(self.network)  # enumerates networks on a miss
        # canonicalise aliases before anything hashes or validates; the
        # engine vocabulary lives in the engine registry (canonical
        # names, aliases, plus the auto/vectorized directives)
        object.__setattr__(self, "network", network.name)
        object.__setattr__(self, "engine", normalize_engine_name(self.engine))
        # the retired extra={"law": ...} spelling folds into the
        # traffic axis (the mapping lives in the traffic registry), so
        # legacy specs normalise — pre-content-hash — onto the same
        # cache cells as their traffic-axis twins
        traffic_name = self.traffic
        law = next((v for k, v in self.extra if k == "law"), None)
        if law is not None:
            traffic_name = merge_legacy_law(traffic_name, law)
            object.__setattr__(
                self,
                "extra",
                tuple((k, v) for k, v in self.extra if k != "law"),
            )
        object.__setattr__(
            self, "traffic", canonical_traffic_name(traffic_name)
        )
        plugin = get_plugin(self.scheme)  # enumerates schemes on a miss
        if self.discipline not in DISCIPLINES:
            raise ConfigurationError(
                f"unknown discipline {self.discipline!r}; "
                f"one of {', '.join(DISCIPLINES)}"
            )
        if self.seed_policy not in SEED_POLICIES:
            raise ConfigurationError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"one of {', '.join(SEED_POLICIES)}"
            )
        plugin.validate(self)
        network.validate(self)
        self.traffic_plugin.validate(self)
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must lie in [0, 1], got {self.p}")
        if plugin.capabilities.static:
            if self.rho is not None or self.lam is not None:
                raise ConfigurationError(
                    f"static scheme {self.scheme!r} takes neither rho nor lam"
                )
        else:
            if (self.rho is None) == (self.lam is None):
                raise ConfigurationError(
                    "exactly one of rho and lam must be set "
                    f"(got rho={self.rho}, lam={self.lam})"
                )
            if self.horizon <= 0:
                raise ConfigurationError(f"horizon must be > 0, got {self.horizon}")
        if not 0 <= self.warmup_fraction < 1 or not 0 <= self.cooldown_fraction < 1:
            raise ConfigurationError("trim fractions must lie in [0, 1)")
        if self.warmup_fraction + self.cooldown_fraction >= 1:
            raise ConfigurationError("warmup + cooldown must leave a window")
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications}"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def plugin(self):
        """The :class:`~repro.plugins.api.SchemePlugin` running this spec."""
        from repro.plugins.registry import get_plugin

        return get_plugin(self.scheme)

    @property
    def network_plugin(self):
        """The :class:`~repro.networks.api.NetworkPlugin` this spec runs on."""
        from repro.networks.registry import get_network

        return get_network(self.network)

    @property
    def traffic_plugin(self):
        """The :class:`~repro.traffic.api.TrafficPlugin` generating
        this spec's workload."""
        from repro.traffic.registry import get_traffic

        return get_traffic(self.traffic)

    @property
    def is_static(self) -> bool:
        """One-shot permutation task (no arrival process)?"""
        return self.plugin.capabilities.static

    @property
    def resolved_lam(self) -> float:
        """Per-node arrival rate, whichever way the spec was given
        (the network plugin owns the load-factor -> rate law)."""
        if self.is_static:
            return float("nan")
        if self.lam is not None:
            return float(self.lam)
        return float(self.network_plugin.lam_for_load(self))

    @property
    def resolved_rho(self) -> float:
        """Load factor, whichever way the spec was given (the network
        plugin owns the rate -> load-factor law)."""
        if self.is_static:
            return float("nan")
        if self.rho is not None:
            return float(self.rho)
        return float(self.network_plugin.load_factor(self))

    def option(self, key: str, default: Any = None) -> Any:
        """Look up a scheme-specific knob from ``extra``."""
        for k, v in self.extra:
            if k == key:
                return v
        return default

    # -- derivation -----------------------------------------------------------

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with fields overridden (``dataclasses.replace`` that
        also resolves the rho/lam exclusivity: overriding one clears
        the other unless both are given explicitly)."""
        if "rho" in changes and "lam" not in changes and self.lam is not None:
            changes["lam"] = None
        if "lam" in changes and "rho" not in changes and self.rho is not None:
            changes["rho"] = None
        if "extra" in changes:
            changes["extra"] = _freeze_extra(changes["extra"])
        return dataclasses.replace(self, **changes)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = {name: getattr(self, name) for name in _FIELDS}
        out["extra"] = {k: _thaw_value(v) for k, v in self.extra}
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        unknown = set(data).difference(_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**dict(data))

    def _hash_payload(self) -> Dict[str, Any]:
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("description")
        return payload

    def content_hash(self) -> str:
        """Stable digest of everything that affects the numbers.

        ``name`` and ``description`` are labels, not physics: two specs
        differing only there share a cache cell.  A spec is immutable,
        so the digest is computed once and kept on the instance (outside
        the dataclass fields); :meth:`replace` builds a new instance,
        which computes its own.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            blob = json.dumps(
                self._hash_payload(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(blob.encode()).hexdigest()[:20]
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def replication_hash(self) -> str:
        """Digest of everything that affects **one replication**.

        Like :meth:`content_hash` but additionally independent of
        ``replications``: replication *k*'s seed depends only on
        ``(base_seed, seed_policy, k)`` under either policy, so raising
        the replication count of a spec extends — never invalidates —
        its per-replication cache cells.
        """
        payload = self._hash_payload()
        payload.pop("replications")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:20]


#: the spec's field names, in declaration order (``to_dict``'s key order)
_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
