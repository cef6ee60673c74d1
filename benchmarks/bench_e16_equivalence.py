"""E16 — simulator cross-validation (methodology experiment).

Three independent implementations must agree:

* the vectorised feed-forward engine vs the fixed-point path solver
  over the same packets' explicit arc paths — identical FIFO and PS
  sample paths (max |delta| at float round-off);
* the physical hypercube vs network Q with Lemma-4 Markovian routing —
  equal delay statistics;
* runtime comparison of the two engines (the reason the fast path
  exists).
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.qnetwork import HypercubeQSpec
from repro.sim.eventsim import hypercube_paths
from repro.sim.feedforward import simulate_hypercube_greedy, simulate_markovian
from repro.sim.fixedpoint import simulate_paths_fixed_point
from repro.topology.hypercube import Hypercube
from repro.traffic.destinations import BernoulliFlipLaw
from repro.traffic.workload import HypercubeWorkload

from _common import SEED, emit

D, P, LAM = 4, 0.5, 1.4
HORIZON = 400.0


def _sample(horizon, seed):
    cube = Hypercube(D)
    wl = HypercubeWorkload(cube, LAM, BernoulliFlipLaw(D, P))
    return cube, wl.generate(horizon, rng=seed)


def run_fast(cube, sample):
    return simulate_hypercube_greedy(cube, sample)


def run_paths(cube, sample, discipline="fifo"):
    paths = hypercube_paths(cube.d, sample.origins, sample.destinations)
    return simulate_paths_fixed_point(
        cube.num_arcs, sample.times, paths, discipline=discipline
    )


def run_experiment():
    cube, sample = _sample(HORIZON, SEED)
    t0 = time.perf_counter()
    ff = run_fast(cube, sample)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    fp = run_paths(cube, sample)
    t_paths = time.perf_counter() - t0
    fifo_dev = float(np.abs(ff.delivery - fp.delivery).max())

    ff_ps = simulate_hypercube_greedy(cube, sample, discipline="ps")
    fp_ps = run_paths(cube, sample, "ps")
    ps_dev = float(np.abs(ff_ps.delivery - fp_ps.delivery).max())

    # physical vs network-Q statistics
    moving = (sample.origins ^ sample.destinations) != 0
    t_phys = float(ff.delays()[moving].mean())
    spec = HypercubeQSpec(cube, P)
    times, arcs = spec.sample_external_arrivals(LAM, 4 * HORIZON, rng=SEED + 1)
    qres = simulate_markovian(spec, times, arcs, rng=SEED + 2)
    t_q = float((qres.exit_times - times).mean())

    rows = [
        ("max |FIFO path deviation|", fifo_dev, "0 (float round-off)"),
        ("max |PS path deviation|", ps_dev, "0 (float round-off)"),
        ("physical cube mean delay (movers)", t_phys, "matches network Q"),
        ("network Q mean delay", t_q, "matches physical"),
        ("level sweep runtime (s)", t_fast, ""),
        ("fixed-point path solver runtime (s)", t_paths, ""),
        ("speedup", t_paths / t_fast, ""),
    ]
    return rows, sample.num_packets


def test_e16_equivalence(benchmark):
    cube, sample = _sample(120.0, SEED)
    benchmark.pedantic(lambda: run_fast(cube, sample), rounds=5, iterations=1)
    rows, n = run_experiment()
    emit(
        "e16_equivalence",
        format_table(
            ["check", "value", "expectation"],
            rows,
            title=f"E16  engines agree sample-path-exactly ({n} packets, d={D})",
        ),
    )
    assert rows[0][1] < 1e-8
    assert rows[1][1] < 1e-6
    assert abs(rows[2][1] - rows[3][1]) / rows[2][1] < 0.1
