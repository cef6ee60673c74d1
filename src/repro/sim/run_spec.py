"""Single-replication execution of a scenario spec.

This is the sim-layer entry point of the scenario runner
(:mod:`repro.runner`): given a :class:`~repro.runner.spec.ScenarioSpec`
and one seed, execute exactly one replication and return its
steady-state estimate.

Execution is a thin lookup: the spec's scheme resolves to a
:class:`~repro.plugins.api.SchemePlugin` through the plugin registry
(:mod:`repro.plugins.registry`), whose ``batch_runner(spec)`` hook
builds the closure that does the work — the same closure the parallel
runner uses, here on a batch of one seed.
Which engine runs — the levelled feed-forward sweep or the
fixed-point path solver — resolves through the **engine plugin
registry** (:func:`repro.engines.registry.resolve_engine`), driven by
the spec's ``engine`` field and the capabilities the scheme, network
and engine plugins declare.

The RNG consumption per scheme deliberately reproduces the historical
hand-rolled experiment loops, so a spec with ``seed_policy=
"sequential"`` and ``replications=1`` is bit-for-bit identical to the
pre-runner code paths (pinned by ``tests/test_golden_dispatch.py``).

The plugin registry is imported lazily: plugin modules import
:mod:`repro.sim` themselves, so importing them at module scope would
be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.rng import SeedLike, as_generator
from repro.sim.measurement import DelayRecord

__all__ = ["ReplicationOutput", "run_spec"]


@dataclass(frozen=True)
class ReplicationOutput:
    """What one replication contributes to a pooled measurement."""

    mean_delay: float
    num_packets: int
    #: scheme-specific side metrics, averaged across replications later
    metrics: Tuple[Tuple[str, float], ...] = ()
    #: full per-packet record (kept by :func:`run_spec` only when
    #: ``keep_record=True``); not part of what the replication
    #: contributes, so equality ignores it
    record: Optional[DelayRecord] = field(default=None, compare=False)


def run_spec(spec, rng: SeedLike = None, *, keep_record: bool = False) -> ReplicationOutput:
    """Execute **one** replication of *spec* with the given seed.

    The seed fully determines the result — callers that fan
    replications out over processes get bit-identical numbers to a
    sequential run because each replication consumes only its own
    stream.
    """
    from repro.plugins.registry import get_plugin

    out = get_plugin(spec.scheme).batch_runner(spec)([as_generator(rng)])[0]
    if not keep_record:
        out = ReplicationOutput(out.mean_delay, out.num_packets, out.metrics)
    return out
