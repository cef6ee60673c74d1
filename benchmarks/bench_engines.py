"""Engine-axis baseline: the execution paths, timed and pinned.

Emits ``BENCH_engines.json`` at the **repo root** pinning the
wall-clock and memory profile of the replication fan-out for one
32-replication hypercube-greedy measurement:

* ``seed_fanout_s``   — the original per-process fan-out: one
  replication per task, with the seed's ``serve_level`` (a Python loop
  over arcs, one little Lindley/PS call per arc) re-enacted verbatim.
* ``sequential_s``    — one replication per task
  (``measure(spec, jobs=1, wave_reps=1)``): same task structure, but
  every level is solved by the segmented Lindley recursion with **no**
  per-arc loop.
* ``batched_s``       — the default in-process stack
  (``measure(spec, jobs=1)``): replications stacked into cache-resident
  sub-batches, one workload-generation pass, one vectorised level loop
  per sub-batch.  ``speedup_vs_seed = seed_fanout_s / batched_s`` is
  its gated figure (pinned ≥ 10); ``batched_vs_sequential =
  sequential_s / batched_s`` is reported, not gated: both routes run
  the same FIFO sweep, so host drift decides which one wins.
* ``batched_jobs4_s`` — the batch route split across a ``jobs=4``
  pool: one contiguous seed range per worker, each worker drawing its
  own range's workloads and solving them as one stack.  On a host with
  fewer than 4 cores the column records ``"skipped_single_core"``
  instead of timing pure pool overhead — the ratio is only honest when
  ``host_cpu_cores >= 4``.
* ``chunked_s`` + ``memory`` — the bounded-memory chunked-horizon mode
  (``chunk_packets``): wall-clock on the pinned cell, plus tracemalloc
  peaks of the level sweep unchunked vs chunked on a long-horizon cell
  where the horizon (not the topology) dominates the one-shot
  footprint.
  ``chunked_speedup_vs_seed = seed_fanout_s / chunked_s`` is its
  gated figure: normalised by the frozen seed code like
  ``speedup_vs_seed``, so a faster one-shot sweep cannot fail it
  (``chunked_vs_sequential`` is reported, not gated).
* ``chunked_ps`` — the PS chunk carry on the same cell (one
  replication): max abs deviation of the chunked fair-share
  construction from the one-shot PS sweep, pinned at 0.0 (the carry
  runs the one-shot kernel on the same per-arc state).
* ``ps_seed_s`` / ``ps_s`` — one batched measurement of a PS cell
  (hypercube d=10 ρ=0.7 horizon 20 ×8), with the seed's per-arc
  ``serve_level`` swapped in (one ``ps_departure_times`` loop per busy
  arc) and with the current one (every arc of a level in one PS
  kernel).  ``ps_speedup_vs_seed = ps_seed_s / ps_s`` is pinned ≥ 5
  and ``ps_bit_identical`` asserts the two measurements are equal.
* ``event_s`` / ``event_batched_s`` — replication batching on the
  fixed-point path engine, on a **sparse cyclic-scheme cell**
  (``random_order``: the server graph is cyclic, so it runs on the
  fixed-point engine's time-ordered FIFO pass; the ``event_`` keys
  keep the name of the event engine that engine absorbed): one
  replication per task (``wave_reps=1``) vs all replications stacked
  into one arc-offset system.  The merged system is R times denser, which
  is where the pass's per-window cost amortises —
  ``event_batched_vs_event = event_s / event_batched_s``
  is pinned ≥ 2.0, with per-replication results bit-identical by
  construction (asserted).
* ``fixedpoint_sweeps_s`` / ``fixedpoint_s`` — one batched FIFO
  measurement of a **non-levelled** cell (ring d=6 ρ=0.7 horizon 200
  ×8 on the fixed-point engine), with FIFO routed through the
  fixed-point sweep loop (one module attribute swapped, as for the
  seed's ``serve_level``) and through the one-pass solver that serves
  every hop row once.  ``fixedpoint_pass_vs_sweeps =
  fixedpoint_sweeps_s / fixedpoint_s`` is pinned ≥ 5 and
  ``fixedpoint_bit_identical`` asserts the two measurements are equal
  (both reach the unique consistent sample path).

Every path produces **bit-identical** measurements (asserted — the
golden-pinned contract), so the comparison is pure wall clock.  The
operating point is deliberately arc-rich (d=13: 8192 nodes, 106496
arcs, short horizon): the regime of wide parameter sweeps over large
networks.

Run with::

    python benchmarks/bench_engines.py            # full (the pinned JSON)
    python benchmarks/bench_engines.py --quick    # CI smoke sizes
"""

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro.sim.feedforward as _ff
import repro.sim.fixedpoint as _fp
from repro.rng import as_generator, replication_seeds
from repro.runner import ScenarioSpec, measure
from repro.sim.lindley import fifo_departure_times
from repro.sim.servers import ps_departure_times

ROOT = Path(__file__).resolve().parent.parent

#: arc-rich sweep cell: 8192-node cube, every level touches thousands
#: of arcs with a handful of packets each
FULL_SPEC = dict(d=13, rho=0.7, horizon=4.0, replications=32)
#: CI smoke sizes (same shape, seconds instead of minutes)
QUICK_SPEC = dict(d=10, rho=0.7, horizon=6.0, replications=16)

#: bounded-memory demonstration cell: modest network, long horizon —
#: the regime chunk_packets exists for (one-shot footprint scales with
#: the horizon, chunked with the chunk + the topology)
FULL_MEM = dict(d=10, rho=0.7, horizon=200.0)
QUICK_MEM = dict(d=8, rho=0.7, horizon=120.0)
MEM_CHUNK = 4096

#: chunk used for the wall-clock column on the pinned cell
TIMING_CHUNK = 32768

#: Processor-Sharing cell for the PS kernel column: enough arcs per
#: level for the lockstep phase, enough events per arc for it to matter
FULL_PS = dict(d=10, rho=0.7, horizon=20.0, replications=8)
QUICK_PS = dict(d=8, rho=0.7, horizon=10.0, replications=4)

#: sparse cyclic-scheme cell for the batched fixed-point pass: low load
#: and a long horizon make each replication's pass sparse (few joins
#: per service window), the regime where merging R replications into
#: one denser pass pays the most
FULL_EVENT = dict(d=4, rho=0.3, horizon=400.0, replications=32)
QUICK_EVENT = dict(d=4, rho=0.3, horizon=120.0, replications=16)

#: non-levelled FIFO cell for the fixed-point column: the ring, where
#: the sweep loop re-solves every hop row once per ~1.7 time units
FULL_FIXEDPOINT = dict(d=6, rho=0.7, horizon=200.0, replications=8)
QUICK_FIXEDPOINT = dict(d=4, rho=0.7, horizon=60.0, replications=2)

REPEATS = 5  # best-of timings


def _seed_serve_level(arcs, times, pids, discipline="fifo", service=1.0):
    """The seed's ``serve_level`` (commit c5ecac6), frozen verbatim:
    after the (arc, time, pid) lexsort, a Python loop dispatches one
    Lindley / fair-share call **per busy arc**."""
    n = arcs.shape[0]
    dep = np.empty(n)
    if n == 0:
        return dep, np.zeros(0, dtype=np.int64)
    per_arc = isinstance(service, np.ndarray)
    order = np.lexsort((pids, times, arcs))
    a_s = arcs[order]
    t_s = times[order]
    starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
    bounds = np.r_[starts, n]
    dep_s = np.empty(n)
    for i in range(starts.shape[0]):
        lo, hi = bounds[i], bounds[i + 1]
        s = float(service[int(a_s[lo])]) if per_arc else float(service)
        if discipline == "fifo":
            dep_s[lo:hi] = fifo_departure_times(t_s[lo:hi], s)
        else:
            dep_s[lo:hi] = ps_departure_times(t_s[lo:hi], work=s)
    dep[order] = dep_s
    return dep, order


def _with_seed_serve_level(fn):
    """Run *fn* with the seed's ``serve_level`` swapped in."""
    modern = _ff.serve_level
    _ff.serve_level = _seed_serve_level
    try:
        return fn()
    finally:
        _ff.serve_level = modern


def _with_fifo_sweeps(fn):
    """Run *fn* with FIFO solved by the fixed-point sweep loop instead
    of the one-pass solver."""
    one_pass = _fp._fifo_pass
    _fp._fifo_pass = _fp._sweeps
    try:
        return fn()
    finally:
        _fp._fifo_pass = one_pass


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _memory_peaks(params):
    """tracemalloc peaks of the level sweep unchunked vs chunked on one
    long-horizon replication (the workload itself is excluded — both
    runs read the same pre-generated sample)."""
    spec = ScenarioSpec(
        name="bench-engines-mem", base_seed=0, seed_policy="spawn",
        replications=1, **params
    )
    net = spec.network_plugin
    topology = net.build_topology(spec)
    seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
    sample = net.build_workload(spec).generate(
        spec.horizon, as_generator(seeds[0])
    )
    levels = net.greedy_levels(topology, spec)
    tracemalloc.start()
    (one_shot,), _ = _ff.simulate_levelled(levels, [sample], spec.discipline)
    _, peak_one = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    (chunked,), _ = _ff.simulate_levelled(
        levels, [sample], spec.discipline, chunk_packets=MEM_CHUNK
    )
    _, peak_chunk = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "cell": {**params, "num_packets": sample.num_packets},
        "chunk_packets": MEM_CHUNK,
        "oneshot_peak_mb": round(peak_one / 2**20, 2),
        "chunked_peak_mb": round(peak_chunk / 2**20, 2),
        "oneshot_over_chunked": round(peak_one / max(peak_chunk, 1), 2),
        "bit_identical": bool(np.array_equal(one_shot, chunked)),
    }


def _chunked_ps_agreement(params, chunk):
    """Max abs deviation of the chunked PS carry from the one-shot PS
    sweep on one replication of the timing cell (pinned at 0.0)."""
    spec = ScenarioSpec(
        name="bench-engines-ps", base_seed=0, seed_policy="spawn",
        replications=1, discipline="ps",
        **{k: v for k, v in params.items() if k != "replications"},
    )
    net = spec.network_plugin
    topology = net.build_topology(spec)
    seeds = replication_seeds(spec.base_seed, 1, spec.seed_policy)
    sample = net.build_workload(spec).generate(
        spec.horizon, as_generator(seeds[0])
    )
    levels = net.greedy_levels(topology, spec)
    (one_shot,), _ = _ff.simulate_levelled(levels, [sample], spec.discipline)
    (chunked,), _ = _ff.simulate_levelled(
        levels, [sample], spec.discipline, chunk_packets=chunk
    )
    err = (
        float(np.max(np.abs(one_shot - chunked)))
        if sample.num_packets
        else 0.0
    )
    return {
        "cell": {k: v for k, v in params.items() if k != "replications"},
        "chunk_packets": chunk,
        "max_abs_diff": err,
    }


def run_experiment(quick=False):
    params = QUICK_SPEC if quick else FULL_SPEC
    spec = ScenarioSpec(
        name="bench-engines", base_seed=0, seed_policy="spawn", **params
    )
    seed_s, seed_m = _with_seed_serve_level(
        lambda: _best_of(lambda: measure(spec, jobs=1, wave_reps=1))
    )
    seq_s, seq_m = _best_of(lambda: measure(spec, jobs=1, wave_reps=1))
    bat_s, bat_m = _best_of(lambda: measure(spec, jobs=1))
    # timing the pool route on < 4 cores would measure pure pool
    # overhead, not parallelism — skip it honestly instead
    cores = os.cpu_count() or 1
    jobs4_skipped = cores < 4
    if jobs4_skipped:
        par_s, par_m = None, None
    else:
        par_s, par_m = _best_of(lambda: measure(spec, jobs=4))
    chunk_spec = spec.replace(extra={"chunk_packets": TIMING_CHUNK})
    chk_s, chk_m = _best_of(lambda: measure(chunk_spec, jobs=1))

    ps_spec = ScenarioSpec(
        name="bench-engines-ps-kernel", base_seed=0, seed_policy="spawn",
        discipline="ps", **(QUICK_PS if quick else FULL_PS)
    )
    ps_seed_s, ps_seed_m = _with_seed_serve_level(
        lambda: _best_of(lambda: measure(ps_spec, jobs=1))
    )
    ps_s, ps_m = _best_of(lambda: measure(ps_spec, jobs=1))

    event_params = QUICK_EVENT if quick else FULL_EVENT
    event_spec = ScenarioSpec(
        name="bench-engines-event", scheme="random_order", base_seed=0,
        seed_policy="spawn", **event_params
    )
    ev_s, ev_m = _best_of(
        lambda: measure(event_spec, jobs=1, wave_reps=1)
    )
    evb_s, evb_m = _best_of(lambda: measure(event_spec, jobs=1))

    fp_spec = ScenarioSpec(
        name="bench-engines-fixedpoint", network="ring", engine="fixedpoint",
        base_seed=0, seed_policy="spawn",
        **(QUICK_FIXEDPOINT if quick else FULL_FIXEDPOINT)
    )
    fp_sweeps_s, fp_sweeps_m = _with_fifo_sweeps(
        lambda: _best_of(lambda: measure(fp_spec, jobs=1))
    )
    fp_s, fp_m = _best_of(lambda: measure(fp_spec, jobs=1))

    bit_identical = seed_m == seq_m == bat_m and (
        par_m is None or par_m == bat_m
    )
    chunked_identical = (
        chk_m.replication_delays == seq_m.replication_delays
    )
    # the batched outputs equal the sequential golden values per
    # replication, not merely in the pooled mean
    seeds = replication_seeds(spec.base_seed, spec.replications,
                              spec.seed_policy)
    runner = spec.plugin.batch_runner(spec)
    from repro.sim.run_spec import run_spec

    per_rep_identical = runner(seeds) == [run_spec(spec, s) for s in seeds]

    return {
        "mode": "quick" if quick else "full",
        "host_cpu_cores": cores,
        "spec": {
            "network": spec.network,
            "scheme": spec.scheme,
            "engine": spec.engine,
            "resolved_engine": "feedforward",
            "d": spec.d,
            "rho": spec.rho,
            "horizon": spec.horizon,
            "replications": spec.replications,
            "seed_policy": spec.seed_policy,
        },
        "num_packets": bat_m.num_packets,
        "mean_delay": bat_m.mean_delay,
        "seed_fanout_s": round(seed_s, 4),
        "sequential_s": round(seq_s, 4),
        "batched_s": round(bat_s, 4),
        "batched_jobs4_s": (
            "skipped_single_core" if jobs4_skipped else round(par_s, 4)
        ),
        "chunked_s": round(chk_s, 4),
        "chunked_chunk_packets": TIMING_CHUNK,
        "speedup_vs_seed": round(seed_s / bat_s, 2),
        "speedup_sequential_vs_seed": round(seed_s / seq_s, 2),
        "batched_vs_sequential": round(seq_s / bat_s, 2),
        "batched_jobs4_vs_batched": (
            "skipped_single_core" if jobs4_skipped else round(bat_s / par_s, 2)
        ),
        "chunked_vs_sequential": round(seq_s / chk_s, 2),
        "chunked_speedup_vs_seed": round(seed_s / chk_s, 2),
        "bit_identical": bool(bit_identical),
        "chunked_bit_identical": bool(chunked_identical),
        "per_replication_bit_identical": bool(per_rep_identical),
        "event_spec": {
            "network": event_spec.network,
            "scheme": event_spec.scheme,
            "resolved_engine": "fixedpoint",
            "d": event_spec.d,
            "rho": event_spec.rho,
            "horizon": event_spec.horizon,
            "replications": event_spec.replications,
            "seed_policy": event_spec.seed_policy,
        },
        "event_num_packets": evb_m.num_packets,
        "event_s": round(ev_s, 4),
        "event_batched_s": round(evb_s, 4),
        "event_batched_vs_event": round(ev_s / evb_s, 2),
        "event_bit_identical": bool(ev_m == evb_m),
        "ps_spec": {
            "network": ps_spec.network,
            "discipline": ps_spec.discipline,
            "d": ps_spec.d,
            "rho": ps_spec.rho,
            "horizon": ps_spec.horizon,
            "replications": ps_spec.replications,
        },
        "ps_seed_s": round(ps_seed_s, 4),
        "ps_s": round(ps_s, 4),
        "ps_speedup_vs_seed": round(ps_seed_s / ps_s, 2),
        "ps_bit_identical": bool(ps_seed_m == ps_m),
        "fixedpoint_spec": {
            "network": fp_spec.network,
            "engine": fp_spec.engine,
            "discipline": fp_spec.discipline,
            "d": fp_spec.d,
            "rho": fp_spec.rho,
            "horizon": fp_spec.horizon,
            "replications": fp_spec.replications,
        },
        "fixedpoint_sweeps_s": round(fp_sweeps_s, 4),
        "fixedpoint_s": round(fp_s, 4),
        "fixedpoint_pass_vs_sweeps": round(fp_sweeps_s / fp_s, 2),
        "fixedpoint_bit_identical": bool(fp_sweeps_m == fp_m),
        "memory": _memory_peaks(QUICK_MEM if quick else FULL_MEM),
        "chunked_ps": _chunked_ps_agreement(params, TIMING_CHUNK),
    }


def emit_json(results):
    path = ROOT / "BENCH_engines.json"
    payload = {
        "description": "the replication fan-out on one "
        "hypercube-greedy cell: one replication per task (wave_reps=1), "
        "the cache-resident sub-batched stack (jobs=1, same process), "
        "and the same stack split across a jobs=4 pool (one "
        "contiguous seed range per worker); plus the bounded-memory "
        "chunked-horizon mode, the seed's per-arc serve_level "
        "re-enacted verbatim as the historical baseline, and the "
        "fixed-point FIFO pass against its sweep loop on a ring cell",
        **results,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def test_seed_baseline_reaches_the_level_sweep():
    """The seed columns time the seed's ``serve_level`` only if the
    batched level sweep looks the module attribute up at call time:
    on a levelled cell, under FIFO and PS, the swapped function must
    serve every hop row, with the same measurement."""
    rows = []

    def counted(arcs, times, pids, discipline="fifo", service=1.0):
        rows.append(arcs.shape[0])
        return _seed_serve_level(arcs, times, pids, discipline, service)

    for discipline in ("fifo", "ps"):
        spec = ScenarioSpec(
            name="bench-engines-seed-swap", base_seed=0, seed_policy="spawn",
            discipline=discipline, d=5, rho=0.7, horizon=6.0, replications=4,
        )
        seeds = replication_seeds(spec.base_seed, spec.replications,
                                  spec.seed_policy)
        samples = spec.network_plugin.build_workload_batch(
            spec, spec.horizon, [as_generator(s) for s in seeds]
        )
        hops = sum(
            int(np.bitwise_count(s.origins ^ s.destinations).sum())
            for s in samples
        )
        rows.clear()
        modern = _ff.serve_level
        _ff.serve_level = counted
        try:
            swapped = measure(spec, jobs=1)
        finally:
            _ff.serve_level = modern
        assert sum(rows) == hops > 0, discipline
        assert swapped == measure(spec, jobs=1), discipline


def test_engines_benchmark():
    quick = True  # keep the pytest entry point CI-sized
    results = run_experiment(quick=quick)
    path = emit_json(results)
    assert results["bit_identical"]
    assert results["chunked_bit_identical"]
    assert results["per_replication_bit_identical"]
    assert results["memory"]["bit_identical"]
    assert results["chunked_ps"]["max_abs_diff"] == 0.0
    assert results["event_bit_identical"]
    assert results["ps_bit_identical"]
    assert results["fixedpoint_bit_identical"]
    print(f"\n[written to {path}]")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    results = run_experiment(quick=quick)
    path = emit_json(results)
    print(json.dumps(results, indent=1))
    print(f"written {path}")
    if not (
        results["bit_identical"]
        and results["chunked_bit_identical"]
        and results["per_replication_bit_identical"]
        and results["event_bit_identical"]
        and results["memory"]["bit_identical"]
        and results["ps_bit_identical"]
        and results["fixedpoint_bit_identical"]
    ):
        sys.exit("FAIL: execution paths are not bit-identical")
    if results["chunked_ps"]["max_abs_diff"] != 0.0:
        sys.exit("FAIL: chunked PS deviates from the one-shot sweep")
    if not quick and results["speedup_vs_seed"] < 10.0:
        sys.exit("FAIL: batched path is not >= 10x the seed fan-out")
    if not quick and results["chunked_speedup_vs_seed"] < 10.0:
        sys.exit("FAIL: chunked-horizon path is not >= 10x the seed fan-out")
    if not quick and results["event_batched_vs_event"] < 2.0:
        sys.exit("FAIL: batched fixed-point pass is not >= 2x sequential")
    if not quick and results["ps_speedup_vs_seed"] < 5.0:
        sys.exit("FAIL: PS kernel is not >= 5x the seed's per-arc loop")
    if not quick and results["fixedpoint_pass_vs_sweeps"] < 5.0:
        sys.exit("FAIL: fixed-point FIFO pass is not >= 5x the sweep loop")
