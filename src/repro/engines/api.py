"""The engine-plugin protocol: sample-path solvers as plugins.

PR 2 opened the *scheme* axis, PR 3 the *network* axis; this module
completes the plugin trilogy on the **engine** axis.  An
:class:`EnginePlugin` is the single place a sample-path solver touches
the scenario subsystem.  It declares its identity (``name`` +
``aliases``) and its *capabilities* — the structural ``kind`` of
solver it is (``levelled`` level sweep or ``fixed-point`` path
solver), the queueing disciplines it implements, the networks it can
drive, whether it supports **replication batching**, and its typed
engine-scoped ``extra`` options — and implements the hooks the rest
of the stack used to hard-code behind ``if engine == ...`` branches:

* :meth:`~EnginePlugin.simulate` — delivery epochs of one traffic
  sample under greedy routing (the path every engine-driven scheme's
  replication runner takes);
* :meth:`~EnginePlugin.simulate_batch` — the replication-batched fast
  path: R replications' workloads stacked into **one** vectorised
  computation (offsetting arc ids per replication keeps the
  sub-systems disjoint, so the batch is bit-identical to R sequential
  runs).  :func:`repro.runner.engine.measure_many` routes through this
  hook whenever the resolved engine declares ``batching``: in process
  at ``jobs <= 1``, and at ``jobs > 1`` once per worker on a
  contiguous range of the centrally derived seeds (each worker draws
  its own range's workloads).  How an engine *internally* organises a
  batch is its own affair: the feed-forward engine stacks replications
  in cache-resident sub-batches, and under its ``chunk_packets`` option
  streams them one by one through the same sweep.

Like the scheme and network APIs, this module is dependency-light (no
numpy import at runtime, no simulator imports) so plugin modules can
import it without cycles; concrete engines import their machinery
lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.plugins.api import OptionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.rng import SeedLike
    from repro.runner.spec import ScenarioSpec
    from repro.sim.run_spec import ReplicationOutput
    from repro.topology.base import Topology
    from repro.traffic.workload import TrafficSample

__all__ = ["EngineCapabilities", "EnginePlugin", "ENGINE_KINDS", "batch_output"]

#: the structural families an engine may declare as its ``kind``
ENGINE_KINDS = ("levelled", "fixed-point")


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine declares about itself.

    ``kind`` names the structural family: ``"levelled"`` solvers sweep
    a levelled network level by level with no event calendar (Property
    B of the paper — the central computational trick),
    ``"fixed-point"`` solvers run the vectorised batch machinery over
    explicit arc paths to a consistent sample path of any network.

    ``networks`` lists canonical network-plugin names, or the wildcard
    ``"*"`` for an engine implemented purely against per-packet arc
    paths (fixed-point), which therefore drives every network —
    third-party ones included.

    ``batching`` declares the replication-batched fast path:
    :meth:`EnginePlugin.simulate_batch` stacks R replications into one
    vectorised computation, and the parallel runner routes through it
    instead of the one-process-one-replication pool.
    """

    kind: str
    disciplines: Tuple[str, ...] = ("fifo", "ps")
    networks: Tuple[str, ...] = ("*",)
    batching: bool = False
    options: Tuple[OptionSpec, ...] = ()


class EnginePlugin:
    """Base class / protocol for engine plugins.

    Subclasses set :attr:`name` (and optionally :attr:`aliases`,
    :attr:`summary`), declare :attr:`capabilities`, and implement
    :meth:`batch_deliveries` (or override :meth:`simulate`, when the
    engine does not batch).
    """

    #: registry key; also an admissible ``ScenarioSpec.engine`` value
    name: str = ""
    #: alternative spellings accepted by specs and the CLI; a spec
    #: built with an alias is normalised to :attr:`name` *before*
    #: content-hashing, so aliases share cache cells
    aliases: Tuple[str, ...] = ()
    #: one-line human description shown by ``repro engines``
    summary: str = ""
    capabilities: EngineCapabilities

    # -- option schema -------------------------------------------------------

    def option_spec(self, name: str) -> Optional[OptionSpec]:
        for opt in self.capabilities.options:
            if opt.name == name:
                return opt
        return None

    def option_names(self) -> Tuple[str, ...]:
        return tuple(opt.name for opt in self.capabilities.options)

    # -- admissibility -------------------------------------------------------

    def supports(self, spec: "ScenarioSpec") -> Optional[str]:
        """``None`` when the engine can run *spec*, else a reason.

        The default checks the declared discipline and network
        capabilities; subclasses add structural rules (the level-sweep
        engine needs a levelled network)."""
        caps = self.capabilities
        if spec.discipline not in caps.disciplines:
            return (
                f"engine {self.name!r} implements disciplines "
                f"{', '.join(caps.disciplines)}, not {spec.discipline!r}"
            )
        if "*" not in caps.networks and spec.network not in caps.networks:
            return (
                f"engine {self.name!r} drives networks "
                f"{', '.join(caps.networks)}, not {spec.network!r}"
            )
        return None

    def supports_batch(self, spec: "ScenarioSpec") -> bool:
        """May *spec*'s replications run through :meth:`simulate_batch`?"""
        return self.capabilities.batching and self.supports(spec) is None

    # -- execution -----------------------------------------------------------

    def simulate(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        sample: "TrafficSample",
    ) -> "np.ndarray":
        """Delivery epochs of *sample* under greedy routing on *spec*'s
        network (the hook :class:`~repro.plugins.greedy.GreedyPlugin`
        replications route through): a batch of one."""
        return self.batch_deliveries(spec, topology, [sample])[0]

    def simulate_batch(
        self, spec: "ScenarioSpec", seeds: Sequence["SeedLike"]
    ) -> List["ReplicationOutput"]:
        """One :class:`~repro.sim.run_spec.ReplicationOutput` per seed,
        computed as a single stacked computation.

        The contract is strict: entry *k* must be **bit-identical** to
        ``run_spec(spec, seeds[k])`` — same workload draw from the
        seed's own stream, same sample path, same trimmed estimate —
        so the per-replication cache cells and the pooled confidence
        intervals cannot tell the two paths apart (pinned by
        ``tests/test_golden_dispatch.py``).

        This template owns the RNG-consumption half of that contract
        (one workload draw per seed, each from its own stream — exactly
        the sequential runner's order, generated through the network's
        :meth:`~repro.networks.api.NetworkPlugin.build_workload_batch`
        so the traffic plugin can amortise across the batch) and the
        shared epilogue; a batching engine implements only
        :meth:`batch_deliveries`.
        """
        from repro.rng import as_generator

        net = spec.network_plugin
        topology = net.build_topology(spec)
        samples = net.build_workload_batch(
            spec, spec.horizon, [as_generator(seed) for seed in seeds]
        )
        deliveries = self.batch_deliveries(spec, topology, samples)
        return [
            batch_output(spec, sample, delivery)
            for sample, delivery in zip(samples, deliveries)
        ]

    def batch_deliveries(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        samples: List["TrafficSample"],
    ) -> List["np.ndarray"]:
        """Delivery epochs of R independent samples as one stacked
        computation (entry *r* bit-identical to
        ``simulate(spec, topology, samples[r])``); the hook engines
        declaring ``batching`` implement."""
        raise NotImplementedError  # pragma: no cover - protocol

    # -- cosmetics -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EnginePlugin {self.name!r}>"


def batch_output(
    spec: "ScenarioSpec",
    sample: "TrafficSample",
    delivery: "np.ndarray",
    metrics: Tuple[Tuple[str, float], ...] = (),
) -> "ReplicationOutput":
    """The batched replication epilogue: one stacked replication's
    delivery array (and its side *metrics*) through the **same**
    trim-and-wrap code the sequential runner uses
    (:func:`repro.plugins.api.steady_output`), minus the per-packet
    record (as the pooled path drops it)."""
    from repro.plugins.api import steady_output
    from repro.sim.measurement import DelayRecord
    from repro.sim.run_spec import ReplicationOutput

    out = steady_output(
        spec, DelayRecord(sample.times, delivery, sample.horizon), metrics
    )
    return ReplicationOutput(out.mean_delay, out.num_packets, out.metrics, None)
