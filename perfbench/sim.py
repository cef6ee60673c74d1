"""The in-process workloads ``levelled-fifo`` and ``ps-and-cyclic``.

A *round* measures every cell of the workload once (``measure_many``,
``jobs=1``, batched route, no store).  After each cell it answers
:data:`HITS_PER_CELL` repeat requests from a results store in process,
the path of a second ``repro run`` of the same scenario.  Rounds repeat
until the run's seconds are spent; every round computes the same
cells, so each round's results must equal the first's.

The host this was built on runs in a fast or a slow state for seconds at
a time, and the share of fast time differs from run to run.  The
figures therefore describe the slow state, which every run sees: each
cell's slowest round, the slowest round's request rate, and the upper
percentiles of every hit of the run (``common.HIT_QUANTILES``).  Over
the same five identical runs per workload, the sum of each cell's
slowest round spread 4-7 % and of its median round 12-19 %; the hits'
p90 spread 6 % and their median 18-31 %.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import tracing
from common import (
    HERE,
    HIT_QUANTILES,
    MISS_QUANTILES,
    OUT,
    Outcome,
    check,
    latency_metrics,
    peak_rss_mb,
    scratch_dir,
    timed_setup_probe,
)

#: the seed whose results must match ``reference.json`` bit for bit
DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"
#: hits answered after each cell measurement
HITS_PER_CELL = 300

#: per workload, the cells one round measures (ScenarioSpec fields)
CELLS: Dict[str, List[Dict[str, Any]]] = {
    "levelled-fifo": [
        # the arc-rich BENCH_engines.json cell: 8192 nodes, short horizon
        dict(name="hypercube-d13", d=13, rho=0.7, horizon=4.0, replications=32),
        dict(name="butterfly-d11", network="butterfly", d=11, rho=0.7,
             horizon=4.0, replications=16),
        dict(name="hypercube-d10-chunked", d=10, rho=0.7, horizon=200.0,
             replications=4, extra={"chunk_packets": 4096}),
    ],
    "ps-and-cyclic": [
        # the per-arc PSServer loop
        dict(name="hypercube-d10-ps", d=10, rho=0.7, horizon=20.0,
             replications=8, discipline="ps"),
        # serve_level iterated to a fixed point
        dict(name="ring-d6-fixedpoint", network="ring", engine="fixedpoint",
             d=6, rho=0.7, horizon=200.0, replications=8),
        # the batched event calendar
        dict(name="hypercube-d4-random-order", scheme="random_order", d=4,
             rho=0.3, horizon=400.0, replications=32),
    ],
}


def build_specs(workload: str, seed: int, cells: Optional[Sequence[dict]] = None):
    from repro.runner import ScenarioSpec

    return [
        ScenarioSpec(base_seed=seed, seed_policy="spawn", **cell)
        for cell in (CELLS[workload] if cells is None else cells)
    ]


def setup_probe(workload: str) -> None:
    """What a fresh process pays before its first measurement: imports,
    registry load, spec normalisation and topology builds."""
    for spec in build_specs(workload, DEFAULT_SEED):
        spec.network_plugin.build_topology(spec)


def count_hops(spec) -> int:
    """Packet-hops of every replication of *spec*, counted from its
    regenerated workloads (greedy paths: popcount on the hypercube,
    ``d`` on the butterfly, path lengths elsewhere)."""
    from repro.rng import as_generator, replication_seeds

    seeds = replication_seeds(spec.base_seed, spec.replications, spec.seed_policy)
    net = spec.network_plugin
    samples = net.build_workload_batch(
        spec, spec.horizon, [as_generator(s) for s in seeds]
    )
    if spec.network == "hypercube":
        return sum(
            int(np.bitwise_count(np.asarray(s.origins) ^ np.asarray(s.destinations))
                .sum())
            for s in samples
        )
    if spec.network == "butterfly":
        return sum(spec.d * s.num_packets for s in samples)
    topology = net.build_topology(spec)
    return sum(
        sum(len(p) for p in net.greedy_paths(topology, spec, s)) for s in samples
    )


def _fresh_heap(rec: tracing.Recorder) -> None:
    """Collect garbage so every phase starts from the same heap state;
    the benchmark's own collection is kept out of a traced round."""
    recording = rec.enabled
    rec.stop_recording()
    gc.collect()
    if recording:
        rec.start_recording()


def _warm_up(specs) -> None:
    """Run each cell's code path once at a tiny size, so lazy imports
    and first-call costs stay out of the timed rounds."""
    import repro.runner.engine as engine

    for spec in specs:
        engine.measure_many(
            [spec.replace(d=min(spec.d, 4), replications=2)], jobs=1
        )


def _check_results(workload, seed, specs, results, notes, default_cells) -> List[bool]:
    """Bit-for-bit checks outside the timed rounds: the reference
    values at the default seed, and one sampled replication per cell
    re-run through ``run_spec``."""
    from repro.rng import replication_seeds
    from repro.sim.run_spec import run_spec

    oks = []
    if seed == DEFAULT_SEED and default_cells:
        reference = json.loads(REFERENCE.read_text())[workload]
        for spec, m in zip(specs, results):
            ref = reference[spec.name]
            oks.append(check(
                notes,
                m.mean_delay == ref["mean_delay"]
                and list(m.replication_delays) == ref["replication_delays"],
                f"{spec.name}: differs from reference.json",
            ))
    pick = random.Random(seed)
    for spec, m in zip(specs, results):
        k = pick.randrange(spec.replications)
        seeds = replication_seeds(spec.base_seed, spec.replications, spec.seed_policy)
        rerun = run_spec(spec, seeds[k]).mean_delay
        oks.append(check(
            notes, rerun == m.replication_delays[k],
            f"{spec.name}: replication {k} differs from run_spec",
        ))
    return oks


def write_reference() -> None:
    """Record every cell's pooled results at the default seed."""
    import repro.runner.engine as engine

    payload = {}
    for workload in CELLS:
        specs = build_specs(workload, DEFAULT_SEED)
        payload[workload] = {
            spec.name: {
                "mean_delay": m.mean_delay,
                "replication_delays": list(m.replication_delays),
            }
            for spec, m in zip(specs, engine.measure_many(specs, jobs=1))
        }
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    cells: Optional[Sequence[dict]] = None,
    hits_per_cell: int = HITS_PER_CELL,
) -> Outcome:
    import repro.runner.engine as engine
    from repro.runner.backends import make_store

    notes: Dict[str, Any] = {}
    setup_s = None if trace else timed_setup_probe(workload)
    specs = build_specs(workload, seed, cells)
    hops = sum(count_hops(spec) for spec in specs)
    _warm_up(specs)
    store = make_store(scratch_dir(f"{workload}-store", fresh=True))

    first: List[Any] = []
    cell_lat: List[float] = []
    hit_lat: List[float] = []
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rec = tracing.Recorder()
    attempted = failed = 0
    rounds = 0
    t_start = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        patches = tracing.install(rec, tracing.SIM_LAYERS) if traced else None
        if traced:
            notes["unwrapped"] = patches.missing
            rec.start_recording()
        wall = 0.0
        for i, spec in enumerate(specs):
            attempted += 1
            _fresh_heap(rec)
            t0 = time.perf_counter()
            m = engine.measure_many([spec], jobs=1)[0]
            dt = time.perf_counter() - t0
            wall += dt
            cell_lat.append(dt)
            if rounds == 0:  # never a traced round
                first.append(m)
                store.save(spec, m)
            elif not check(notes, m == first[i], f"{spec.name}: round {rounds} differs"):
                failed += 1
            # a block of hits after every cell spreads them over the run;
            # they cycle over the cells stored so far
            _fresh_heap(rec)
            block = []
            for j in range(hits_per_cell):
                attempted += 1
                cell = j % len(first)
                t0 = time.perf_counter()
                got = engine.measure(specs[cell], store=store)
                dt = time.perf_counter() - t0
                wall += dt
                block.append(dt)
                if not check(notes, got == first[cell], f"{specs[cell].name}: hit differs"):
                    failed += 1
            # the first round's early blocks see fewer cells stored
            if len(first) == len(specs):
                hit_lat += block
        if traced:
            rec.stop_recording()
            patches.restore()
        walls[traced].append(wall)
        rounds += 1
        done = time.perf_counter() - t_start >= seconds
        if done and (not trace or (walls[True] and walls[False])):
            break

    oks = _check_results(workload, seed, specs, first, notes, cells is None)
    attempted += len(oks)
    failed += oks.count(False)
    notes.update(rounds=rounds, hops_per_round=hops)

    if trace:
        layers = tracing.layer_metrics(rec)
        traced_rounds = len(walls[True])
        metrics = {k: v / traced_rounds for k, v in layers.items()}
        metrics["store.hit_ratio"] = layers["store.hit_ratio"]
        # no server on this path: no jobs
        metrics["jobs.queue_wait_s"] = metrics["jobs.run_s"] = 0.0
        metrics["trace_overhead"] = (
            statistics.median(walls[True]) / statistics.median(walls[False])
        )
        notes["per_layer_unit"] = "per round"
        rec.write(str(OUT / f"{workload}-spans.json"))
        return Outcome(metrics, attempted, failed, notes)

    slowest = [max(cell_lat[i::len(specs)]) for i in range(len(specs))]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "hops_per_s": hops / sum(slowest),
        # a request is a cell or a hit; every round is untraced here
        "requests_per_s": len(specs) * (1 + hits_per_cell) / max(walls[False]),
    }
    metrics.update(latency_metrics([hit_lat], HIT_QUANTILES, 1e3, notes))
    metrics.update(latency_metrics([slowest], MISS_QUANTILES, 1.0, notes))
    return Outcome(metrics, attempted, failed, notes)
