"""The scheme-plugin protocol: capabilities, option schemas, runners.

A plugin is the single place a scheme touches the scenario subsystem.
It declares *capabilities* (which networks/engines/disciplines it
admits, its typed ``extra`` options, its side metrics) consumed by
:class:`~repro.runner.spec.ScenarioSpec` validation and the CLI, and
implements :meth:`SchemePlugin.prepare`, which turns a validated spec
into a ``Runner``: a closure ``runner(gen) -> ReplicationOutput``
executing exactly one replication from one RNG stream.

The run contract is strict: a runner must consume randomness **only**
from the generator it is handed (never module-level state), so that a
replication's numbers depend only on its seed — the property the
parallel engine and the per-replication cache are built on.  For the
built-in schemes the exact RNG consumption order is pinned by the
golden regression suite (``tests/test_golden_dispatch.py``).

This module is intentionally dependency-light (no numpy, no simulator
imports) so scheme modules can import it without cycles; the helpers
that need simulator types import them lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.runner.spec import ScenarioSpec
    from repro.sim.measurement import DelayRecord
    from repro.sim.run_spec import ReplicationOutput

__all__ = [
    "OptionSpec",
    "Capabilities",
    "Runner",
    "SchemePlugin",
    "steady_output",
]

#: the standardized run contract: one replication from one RNG stream.
Runner = Callable[["np.random.Generator"], "ReplicationOutput"]

#: option kinds understood by :meth:`OptionSpec.validate`
_KINDS = ("str", "int", "float", "bool", "int_tuple")


@dataclass(frozen=True)
class OptionSpec:
    """Typed schema entry for one scheme-specific ``extra`` knob."""

    name: str
    kind: str = "str"  # one of _KINDS
    default: Any = None
    choices: Optional[Tuple[Any, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"option {self.name!r}: unknown kind {self.kind!r} "
                f"(one of {', '.join(_KINDS)})"
            )

    def validate(self, value: Any) -> None:
        """Raise :class:`ConfigurationError` unless *value* fits."""
        ok = True
        if self.kind == "str":
            ok = isinstance(value, str)
        elif self.kind == "bool":
            ok = isinstance(value, bool)
        elif self.kind == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif self.kind == "float":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif self.kind == "int_tuple":
            ok = isinstance(value, tuple) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in value
            )
        if not ok:
            raise ConfigurationError(
                f"option {self.name!r} expects a {self.kind}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"option {self.name!r} must be one of "
                f"{', '.join(map(repr, self.choices))}; got {value!r}"
            )


@dataclass(frozen=True)
class Capabilities:
    """What a scheme declares about itself.

    ``networks`` lists canonical network-plugin names, or the wildcard
    ``"*"`` for a scheme implemented entirely against the
    :class:`~repro.networks.api.NetworkPlugin` protocol (greedy), which
    therefore runs on every registered network — including third-party
    ones this repository has never heard of.

    ``engines`` lists the engines a spec may force via
    ``engine="..."`` — canonical :class:`~repro.engines.api.EnginePlugin`
    names, their aliases, or the ``"vectorized"`` directive (the
    network's native vectorised engine); ``engine="auto"`` (the
    scheme's native engine) is always admissible.  Schemes that own
    their whole simulation loop (deflection, the pipelined batch
    baseline, the static tasks) declare no forceable engine at all.

    ``traffics`` lists the traffic laws the scheme can run under —
    canonical :class:`~repro.traffic.api.TrafficPlugin` names or the
    wildcard ``"*"`` for a scheme implemented purely against the
    workload sample (greedy, two-phase), which therefore runs under
    every registered law.  The default is the paper's assumption
    alone: a scheme that hard-codes its own arrival/destination
    machinery (slotted, deflection, the static tasks) only admits
    ``traffic="uniform"`` until it is taught otherwise.
    """

    networks: Tuple[str, ...]
    engines: Tuple[str, ...] = ()
    traffics: Tuple[str, ...] = ("uniform",)
    disciplines: Tuple[str, ...] = ("fifo",)
    options: Tuple[OptionSpec, ...] = ()
    metrics: Tuple[str, ...] = ()
    #: one-shot permutation task: no arrival process, takes neither rho nor lam
    static: bool = False
    #: the scheme routes through the network plugin's greedy machinery
    #: and therefore admits the network's declared ``extra`` options
    #: (``law``/``dim_order`` on the hypercube, ``direction`` on the
    #: ring, ``side`` on the torus, ...)
    network_options: bool = False

    def option_spec(self, name: str) -> Optional[OptionSpec]:
        for opt in self.options:
            if opt.name == name:
                return opt
        return None

    def option_names(self) -> Tuple[str, ...]:
        return tuple(opt.name for opt in self.options)


class SchemePlugin:
    """Base class / protocol for scheme plugins.

    Subclasses set :attr:`name`, :attr:`summary` and
    :attr:`capabilities`, implement :meth:`prepare`, and may extend
    :meth:`validate` with scheme-specific cross-field rules (always
    calling ``super().validate(spec)`` first).
    """

    #: registry key; also the ``ScenarioSpec.scheme`` value
    name: str = ""
    #: one-line human description shown by ``repro schemes``
    summary: str = ""
    capabilities: Capabilities

    # -- validation ----------------------------------------------------------

    def validate(self, spec: "ScenarioSpec") -> None:
        """Capability-driven spec validation.

        Rejections explain the combination *and* enumerate what is
        available, so a failing spec is self-diagnosing.
        """
        caps = self.capabilities
        if "*" not in caps.networks and spec.network not in caps.networks:
            from repro.plugins.registry import schemes_for_network

            peers = ", ".join(schemes_for_network(spec.network)) or "(none)"
            raise ConfigurationError(
                f"scheme {self.name!r} does not run on network "
                f"{spec.network!r}; it supports: {', '.join(caps.networks)} "
                f"(schemes available on {spec.network!r}: {peers})"
            )
        from repro.engines.registry import check_forced_engine, resolve_engine
        from repro.traffic.registry import declared_traffic_names

        check_forced_engine(self, spec)
        declared_traffics = declared_traffic_names(caps.traffics)
        if "*" not in declared_traffics and spec.traffic not in declared_traffics:
            raise ConfigurationError(
                f"scheme {self.name!r} does not run under traffic "
                f"{spec.traffic!r}; it supports: {', '.join(caps.traffics)}"
            )
        if spec.discipline not in caps.disciplines:
            raise ConfigurationError(
                f"scheme {self.name!r} does not support discipline "
                f"{spec.discipline!r}; it supports: "
                f"{', '.join(caps.disciplines)}"
            )
        net = spec.network_plugin
        tp = spec.traffic_plugin
        # engine-scoped options only reach schemes that participate in
        # the engine axis (declare at least one forceable engine)
        engine = resolve_engine(spec) if caps.engines else None
        for key, value in spec.extra:
            # the scheme's schema wins on a name collision with the
            # network's, which wins on the traffic plugin's, which wins
            # on the engine's; network options only apply to schemes
            # that declare they consume them
            # (capabilities.network_options)
            opt = caps.option_spec(key)
            if opt is None and caps.network_options:
                opt = net.option_spec(key)
            if opt is None:
                opt = tp.option_spec(key)
            if opt is None and engine is not None:
                opt = engine.option_spec(key)
            if opt is None:
                declared = ", ".join(caps.option_names()) or "(none)"
                msg = (
                    f"unknown option {key!r} for scheme {self.name!r}; "
                    f"declared options: {declared}"
                )
                if caps.network_options:
                    net_declared = ", ".join(net.option_names()) or "(none)"
                    msg += (
                        f"; options of network {spec.network!r}: {net_declared}"
                    )
                tp_declared = ", ".join(tp.option_names()) or "(none)"
                msg += f"; options of traffic {spec.traffic!r}: {tp_declared}"
                if engine is not None:
                    eng_declared = ", ".join(engine.option_names()) or "(none)"
                    msg += (
                        f"; options of engine {engine.name!r}: {eng_declared}"
                    )
                raise ConfigurationError(msg)
            opt.validate(value)

    # -- theory --------------------------------------------------------------

    def theory_bounds(self, spec: "ScenarioSpec") -> Tuple[float, float]:
        """The closed-form mean-delay bracket for *spec*, when the
        scheme has one (typically delegating to the network plugin's
        hooks); default "no known constraint"."""
        import math

        return (-math.inf, math.inf)

    # -- execution -----------------------------------------------------------

    def native_engine(self, spec: "ScenarioSpec") -> Optional[str]:
        """Canonical name of the engine an ``engine="auto"`` spec runs
        on, or ``None`` when the scheme owns its whole simulation loop
        (the default).

        This is what :func:`repro.engines.registry.resolve_engine`
        consults; schemes that route replications through an
        :class:`~repro.engines.api.EnginePlugin` override it (greedy
        returns whatever the network plugin declares native).
        """
        return None

    def prepare(self, spec: "ScenarioSpec") -> Runner:
        """Build the single-replication runner for a validated spec."""
        raise NotImplementedError  # pragma: no cover - protocol

    def batch_runner(
        self, spec: "ScenarioSpec"
    ) -> Optional[Callable[[Sequence[Any]], list]]:
        """A callable mapping replication seeds to their
        :class:`~repro.sim.run_spec.ReplicationOutput` list as **one**
        stacked computation, or ``None`` when the scheme cannot batch
        (the default).

        The contract matches :meth:`prepare` seed for seed: entry *k*
        of the batch must be bit-identical to running the prepared
        runner on ``as_generator(seeds[k])``.  The parallel runner
        (:func:`repro.runner.engine.measure_many`) routes a spec's
        replications through this hook whenever it returns a runner —
        in process at ``jobs <= 1``, one contiguous seed range per
        worker at ``jobs > 1``.
        """
        return None

    # -- cosmetics -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SchemePlugin {self.name!r}>"


# ---------------------------------------------------------------------------
# shared adapter helpers
# ---------------------------------------------------------------------------


def steady_output(
    spec: "ScenarioSpec",
    record: "DelayRecord",
    metrics: Tuple[Tuple[str, float], ...] = (),
) -> "ReplicationOutput":
    """The common replication epilogue: trim the record by the spec's
    warm-up/cool-down windows and wrap the steady-state estimate."""
    from repro.sim.run_spec import ReplicationOutput

    mean = record.mean_delay(spec.warmup_fraction, spec.cooldown_fraction)
    return ReplicationOutput(mean, record.num_packets, metrics, record)
