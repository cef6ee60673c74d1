"""The engine-plugin protocol: sample-path solvers as plugins.

PR 2 opened the *scheme* axis, PR 3 the *network* axis; this module
completes the plugin trilogy on the **engine** axis.  An
:class:`EnginePlugin` is the single place a sample-path solver touches
the scenario subsystem.  It declares its identity (``name`` +
``aliases``) and its *capabilities* — the structural ``kind`` of
solver it is (``levelled`` level sweep or ``fixed-point`` path
solver), the queueing disciplines it implements, the networks it can
drive, and its typed engine-scoped ``extra`` options — and implements
one of two hooks, from which the base class derives the other:

* :meth:`~EnginePlugin.batch_deliveries` — delivery epochs of R
  independent traffic samples as one stacked computation (offsetting
  arc ids per replication keeps the sub-systems disjoint, so the batch
  is bit-identical to R separate runs);
* :meth:`~EnginePlugin.simulate` — delivery epochs of one sample.

:meth:`~EnginePlugin.simulate_batch` turns replication seeds into
outputs through whichever the engine implements; it is what
:meth:`repro.plugins.greedy.GreedyPlugin.batch_runner` hands
:func:`repro.runner.engine.measure_many`, which runs it in process at
``jobs <= 1`` and, at ``jobs > 1``, once per worker on a contiguous
range of the centrally derived seeds (each worker draws its own
range's workloads).  How an engine *internally* organises a batch is
its own affair: the feed-forward engine stacks replications in
cache-resident sub-batches, and under its ``chunk_packets`` option
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
    """

    kind: str
    disciplines: Tuple[str, ...] = ("fifo", "ps")
    networks: Tuple[str, ...] = ("*",)
    options: Tuple[OptionSpec, ...] = ()


class EnginePlugin:
    """Base class / protocol for engine plugins.

    Subclasses set :attr:`name` (and optionally :attr:`aliases`,
    :attr:`summary`), declare :attr:`capabilities`, and implement
    :meth:`batch_deliveries` or :meth:`simulate` (registration refuses
    an engine with neither).
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

    # -- execution -----------------------------------------------------------

    def simulate(
        self,
        spec: "ScenarioSpec",
        topology: "Topology",
        sample: "TrafficSample",
    ) -> "np.ndarray":
        """Delivery epochs of *sample* under greedy routing on *spec*'s
        network.  Default: a batch of one through
        :meth:`batch_deliveries`."""
        return self.batch_deliveries(spec, topology, [sample])[0]

    def simulate_batch(
        self, spec: "ScenarioSpec", seeds: Sequence["SeedLike"]
    ) -> List["ReplicationOutput"]:
        """One :class:`~repro.sim.run_spec.ReplicationOutput` per seed,
        with every seed's sample solved in one :meth:`batch_deliveries`
        call.

        The contract is strict: entry *k* must be **bit-identical** to
        ``run_spec(spec, seeds[k])`` — same workload draw from the
        seed's own stream, same sample path, same trimmed estimate —
        so the per-replication cache cells and the pooled confidence
        intervals cannot tell the two paths apart (pinned by
        ``tests/test_golden_dispatch.py``).

        This template owns the RNG-consumption half of that contract
        (one workload draw per seed, each from its own stream, through
        the network's
        :meth:`~repro.networks.api.NetworkPlugin.build_workload_batch`,
        which builds the workload once for the whole batch) and the
        shared epilogue; an engine implements only
        :meth:`batch_deliveries` or :meth:`simulate`.
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
        """Delivery epochs of R independent samples, entry *r*
        bit-identical to ``simulate(spec, topology, samples[r])``.
        Default: :meth:`simulate` once per sample.  An engine that can
        stack the samples into one computation implements this
        instead."""
        return [self.simulate(spec, topology, sample) for sample in samples]

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
    delivery array (and its side *metrics*) through the shared
    trim-and-wrap code (:func:`repro.plugins.api.steady_output`).  The
    output keeps its per-packet record, whose arrays are alive anyway;
    the parallel runner drops it before an output crosses the pool."""
    from repro.plugins.api import steady_output
    from repro.sim.measurement import DelayRecord

    return steady_output(
        spec, DelayRecord(sample.times, delivery, sample.horizon), metrics
    )
