"""Parallel scenario execution: replication fan-out and pooling.

The hot path of every experiment is running R independent replications
of one spec (or a whole sweep of specs).  Every replication runs
through the spec's scheme batch runner
(:meth:`~repro.plugins.api.SchemePlugin.batch_runner`) on a contiguous
range of seeds: a stacked computation for the engine-driven schemes
(no per-replication Python overhead), one replication after another
for the schemes that own their simulation loop.  At ``jobs <= 1`` the
ranges run in process; at ``jobs > 1`` the seeds split into one
contiguous range per worker, and each worker draws its range's
workloads from those seeds.  Only seeds cross the pool, never
workloads.  ``wave_reps`` caps a range's length (``wave_reps=1`` runs
one replication per task).

Determinism: every replication's seed is derived **centrally** from the
spec (:func:`repro.rng.replication_seeds`) before any fan-out, and each
replication consumes only its own stream — so the numbers are
bit-for-bit identical whatever ``jobs`` and ``wave_reps`` are, and
identical to calling :func:`repro.sim.run_spec.run_spec` by hand
(golden-pinned in ``tests/test_golden_dispatch.py``; the range
equivalence in ``tests/test_execution_paths.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import replication_seeds
from repro.runner.results import DelayMeasurement
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ResultsStore
from repro.sim.run_spec import ReplicationOutput, run_spec
from repro.stats import mean_confidence_interval

__all__ = [
    "MeasureProgress",
    "MeasurementCancelled",
    "measure",
    "measure_many",
    "run_replication",
    "theory_bounds",
]


class MeasurementCancelled(RuntimeError):
    """A cooperative cancel fired between task waves.

    Every replication completed before the cancel is already persisted
    (when a store was given), so re-issuing the same call resumes from
    those per-replication cells instead of recomputing them.
    ``completed`` counts the replications this call finished before
    stopping.
    """

    def __init__(self, completed: int = 0) -> None:
        super().__init__(
            f"measurement cancelled after {completed} replication(s)"
        )
        self.completed = completed


@dataclass(frozen=True)
class MeasureProgress:
    """One progress beat from :func:`measure_many`.

    Emitted per spec when its cached replications are counted, then
    after every completed task wave.  ``completed`` counts
    replications newly simulated by this call, ``cached`` those served
    from per-replication cells; ``remaining`` is what is still queued.
    """

    spec_index: int
    completed: int
    cached: int
    total: int

    @property
    def remaining(self) -> int:
        return self.total - self.completed - self.cached



def theory_bounds(spec: ScenarioSpec) -> Tuple[float, float]:
    """The closed-form bracket for *spec*, when it has one.

    Entirely plugin-driven: the scheme plugin's
    :meth:`~repro.plugins.api.SchemePlugin.theory_bounds` hook composes
    the answer (typically from the network plugin's
    :meth:`~repro.networks.api.NetworkPlugin.greedy_theory_bounds`) —
    greedy routing gets Props 12/13 on the hypercube and 14/17 on the
    butterfly, the slotted variant the §3.4 upper bound next to the
    Prop 13 lower bound.  Unstable operating points and schemes outside
    the paper's analysis get ``(-inf, +inf)`` — "no known constraint".
    """
    lower, upper = spec.plugin.theory_bounds(spec)
    return (float(lower), float(upper))


def run_replication(
    spec: ScenarioSpec, rep: int = 0, *, keep_record: bool = True
) -> ReplicationOutput:
    """Execute replication *rep* of *spec* under its seed policy.

    The low-level door for callers that need per-packet records or
    scheme-specific result objects; :func:`measure` is the pooled path.
    """
    seeds = replication_seeds(spec.base_seed, spec.replications, spec.seed_policy)
    return run_spec(spec, seeds[rep], keep_record=keep_record)


#: one unit of pool work: ``(spec, seeds, run_batch_or_None)`` — a
#: contiguous seed range solved by the scheme's batch runner, which
#: rides along only in process (closures do not cross the pool —
#: workers rebuild it from the spec); one ReplicationOutput per seed
#: comes back, in seed order
_Task = Tuple[ScenarioSpec, Tuple[Any, ...], Optional[Callable]]


def _run_task(task: _Task) -> List[ReplicationOutput]:
    spec, seeds, run_batch = task
    outs = (run_batch or spec.plugin.batch_runner(spec))(seeds)
    # the per-packet record is not part of a cell: drop it before the
    # outputs cross the pool
    return [ReplicationOutput(o.mean_delay, o.num_packets, o.metrics) for o in outs]


def check_wave_reps(wave_reps: Optional[int]) -> None:
    """Refuse a wave cap below one replication; ``None`` (no cap) passes."""
    if wave_reps is not None and wave_reps < 1:
        raise ConfigurationError(
            f"wave_reps must be >= 1 (replications per task), got {wave_reps}"
        )


def _chunk_bounds(
    n: int, jobs: int, wave_reps: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Contiguous near-equal index ranges: one per worker (a 1-item
    range degenerates gracefully, so keeping every worker busy always
    beats a bigger batch).  ``wave_reps`` additionally caps every
    range at that many replications — the cancellation/progress
    granularity: cancel fires and cells persist between ranges, so a
    smaller cap trades batching throughput for responsiveness."""
    chunks = min(max(jobs, 1), n)
    if wave_reps is not None:
        chunks = max(chunks, math.ceil(n / wave_reps))
    chunks = min(chunks, n)
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _execute(
    tasks: Sequence[_Task],
    jobs: int,
    on_task_done: Optional[Callable[[int, List[ReplicationOutput]], None]] = None,
) -> List[ReplicationOutput]:
    """Run every task (in parallel when ``jobs > 1``) and concatenate
    their outputs in task order.

    *on_task_done* fires after each task completes, in task order —
    the hook :func:`measure_many` uses to persist cells incrementally,
    report progress, and check for cancellation.  A callback that
    raises aborts the run (in-flight pool workers are terminated by
    the pool's context manager); results streamed so far have already
    been handed to the callback.
    """
    chunks: List[List[ReplicationOutput]] = []

    def _done(i: int, outs: List[ReplicationOutput]) -> None:
        chunks.append(outs)
        if on_task_done is not None:
            on_task_done(i, outs)

    if jobs <= 1 or len(tasks) <= 1:
        for i, t in enumerate(tasks):
            _done(i, _run_task(t))
    else:
        workers = min(jobs, len(tasks))
        # amortise per-task IPC: aim for ~4 waves of tasks per worker
        chunksize = max(1, len(tasks) // (workers * 4))
        with get_context().Pool(processes=workers) as pool:
            for i, outs in enumerate(
                pool.imap(_run_task, tasks, chunksize=chunksize)
            ):
                _done(i, outs)
    return [out for chunk in chunks for out in chunk]


def _pool_measurement(
    spec: ScenarioSpec, outputs: Sequence[ReplicationOutput]
) -> DelayMeasurement:
    rep_means = np.array([o.mean_delay for o in outputs], dtype=float)
    ci = (
        mean_confidence_interval(rep_means)
        if rep_means.shape[0] >= 2
        else None
    )
    # a side metric is averaged over the replications that reported it
    # (replications may carry heterogeneous metric keys, e.g. when a
    # quantity is undefined on an empty sample)
    metric_sums: Dict[str, float] = {}
    metric_counts: Dict[str, int] = {}
    for o in outputs:
        for key, value in o.metrics:
            metric_sums[key] = metric_sums.get(key, 0.0) + value
            metric_counts[key] = metric_counts.get(key, 0) + 1
    metrics = tuple(
        sorted((k, v / metric_counts[k]) for k, v in metric_sums.items())
    )
    lower, upper = theory_bounds(spec)
    static = spec.is_static
    return DelayMeasurement(
        network=spec.network,
        d=spec.d,
        rho=spec.resolved_rho,
        p=spec.p,
        lam=spec.resolved_lam,
        horizon=0.0 if static else spec.horizon,
        num_packets=int(sum(o.num_packets for o in outputs)),
        mean_delay=float(rep_means.mean()),
        ci=ci,
        lower_bound=lower,
        upper_bound=upper,
        scheme=spec.scheme,
        traffic=spec.traffic,
        discipline=spec.discipline,
        scenario=spec.name,
        replication_delays=tuple(float(x) for x in rep_means),
        metrics=metrics,
    )


def measure(
    spec: ScenarioSpec,
    jobs: int = 1,
    store: Optional[ResultsStore] = None,
    refresh: bool = False,
    cancel: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[MeasureProgress], None]] = None,
    wave_reps: Optional[int] = None,
) -> DelayMeasurement:
    """Run every replication of *spec* (in parallel when ``jobs > 1``)
    and pool them into one :class:`DelayMeasurement`.

    With a *store*, a previously computed spec (same content hash) is
    returned from cache without simulating; ``refresh=True`` forces
    recomputation (and overwrites the cache cell).
    ``cancel``/``progress``/``wave_reps`` are forwarded to
    :func:`measure_many` — see there for the cooperative-cancellation
    and resumability contract.
    """
    return measure_many(
        [spec],
        jobs=jobs,
        store=store,
        refresh=refresh,
        cancel=cancel,
        progress=progress,
        wave_reps=wave_reps,
    )[0]


def measure_many(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    store: Optional[ResultsStore] = None,
    refresh: bool = False,
    cancel: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[MeasureProgress], None]] = None,
    wave_reps: Optional[int] = None,
) -> List[DelayMeasurement]:
    """Batched :func:`measure`: one flat task list across all *specs*.

    Cached specs contribute no tasks; the rest fan out together, so a
    20-cell sweep with 4 replications each keeps ``jobs`` processes
    busy.  Every task is a contiguous seed range that the spec's
    scheme batch runner solves: one range in process at ``jobs <= 1``,
    one per worker at ``jobs > 1`` (each worker draws and solves its
    own range's workloads), each capped at *wave_reps* replications.
    The batch runner is resolved **once per spec** here, never per
    task in the same process.

    Caching is two-level.  A spec whose pooled measurement is already
    stored is returned outright; otherwise the store is probed **per
    replication** (cells keyed by ``(replication_hash, k)``, which is
    independent of the replication count), so raising ``replications``
    on a previously measured spec simulates only the new replications
    and pools them with the cached ones.  A replication's cell is the
    same whatever range it ran in.

    **Cancellation and resumability.**  *cancel* is polled between
    task waves (and once up front); when it returns true the run stops
    with :class:`MeasurementCancelled`.  Each wave's per-replication
    cells are persisted the moment the wave completes — not at the end
    of the whole run — so a cancelled (or crashed) call re-issued with
    the same store resumes from every finished replication.
    *wave_reps* caps how many replications one wave stacks (the
    cancel/persist granularity; ``None`` is one wave per worker, and a
    value below 1 is refused); *progress* receives a
    :class:`MeasureProgress` per spec up front (its cached count) and
    after every wave.
    """
    check_wave_reps(wave_reps)
    results: List[Optional[DelayMeasurement]] = [None] * len(specs)
    tasks: List[_Task] = []
    #: per task: (slot index, replication indices the task covers)
    meta: List[Tuple[int, Tuple[int, ...]]] = []
    #: per pending spec: (spec index, missing rep indices, cached outputs by rep)
    slots: List[Tuple[int, List[int], Dict[int, ReplicationOutput]]] = []
    if cancel is not None and cancel():
        raise MeasurementCancelled(0)
    for i, spec in enumerate(specs):
        cached_reps: Dict[int, ReplicationOutput] = {}
        if store is not None and not refresh:
            cached = store.load(spec)
            if cached is not None:
                results[i] = cached
                if progress is not None:
                    progress(
                        MeasureProgress(
                            i, 0, spec.replications, spec.replications
                        )
                    )
                continue
            cached_reps = {
                k: out
                for k in range(spec.replications)
                if (out := store.load_replication(spec, k)) is not None
            }
        seeds = replication_seeds(
            spec.base_seed, spec.replications, spec.seed_policy
        )
        missing = [k for k in range(spec.replications) if k not in cached_reps]
        slot_idx = len(slots)
        slots.append((i, missing, cached_reps))
        if progress is not None:
            progress(
                MeasureProgress(i, 0, len(cached_reps), spec.replications)
            )
        if not missing:
            continue
        missing_seeds = [seeds[k] for k in missing]
        # the resolved runner closure rides along only when no pool is
        # involved; workers rebuild it from the spec
        run_batch = spec.plugin.batch_runner(spec) if jobs <= 1 else None
        for lo, hi in _chunk_bounds(len(missing_seeds), jobs, wave_reps):
            tasks.append((spec, tuple(missing_seeds[lo:hi]), run_batch))
            meta.append((slot_idx, tuple(missing[lo:hi])))

    completed_total = 0
    completed_by_slot = [0] * len(slots)

    def _on_task_done(t_idx: int, outs: List[ReplicationOutput]) -> None:
        nonlocal completed_total
        slot_idx, reps = meta[t_idx]
        i, _, cached_reps = slots[slot_idx]
        spec = specs[i]
        if store is not None:
            for k, out in zip(reps, outs):
                store.save_replication(spec, k, out)
        completed_by_slot[slot_idx] += len(reps)
        completed_total += len(reps)
        if progress is not None:
            progress(
                MeasureProgress(
                    i,
                    completed_by_slot[slot_idx],
                    len(cached_reps),
                    spec.replications,
                )
            )
        if cancel is not None and cancel():
            raise MeasurementCancelled(completed_total)

    outputs = _execute(tasks, jobs, _on_task_done)
    cursor = 0
    for i, missing, cached_reps in slots:
        spec = specs[i]
        chunk = outputs[cursor : cursor + len(missing)]
        cursor += len(missing)
        by_rep = dict(cached_reps)
        by_rep.update(zip(missing, chunk))
        ordered = [by_rep[k] for k in range(spec.replications)]
        m = _pool_measurement(spec, ordered)
        if store is not None:
            store.save(spec, m)
        results[i] = m
    return results  # type: ignore[return-value]
