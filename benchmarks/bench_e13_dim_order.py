"""E13 — ablation: dimension crossing order.

The paper fixes *increasing index order*; the analysis needs the
levelled structure that any **fixed** global order provides, while the
scheme would route correctly under any order.  Regenerated table:

* increasing vs decreasing vs a fixed shuffled order — identical delay
  law (node-relabelling symmetry), measured to agree within noise;
* per-packet *random* order (non-levelled, fixed-point path simulation) —
  delay measured against the same bounds; the paper's analysis does not
  cover it, but the measurement shows the increasing-order rule costs
  nothing.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.bounds import greedy_delay_lower_bound, greedy_delay_upper_bound
from repro.core.load import lam_for_load
from repro.schemes.random_order import simulate_fixed_order, simulate_random_order
from repro.topology.hypercube import Hypercube
from repro.traffic.destinations import BernoulliFlipLaw
from repro.traffic.workload import HypercubeWorkload

from _common import SEED, emit

D, P, RHO = 5, 0.5, 0.8
HORIZON = 700.0


def _workload(horizon, seed):
    cube = Hypercube(D)
    wl = HypercubeWorkload(cube, lam_for_load(RHO, P), BernoulliFlipLaw(D, P))
    return cube, wl.generate(horizon, rng=seed)


def _steady_mean(sample, delivery, warmup=0.25):
    mask = sample.times >= warmup * sample.horizon
    return float((delivery[mask] - sample.times[mask]).mean())


def run_orders(horizon, seed):
    cube, sample = _workload(horizon, seed)
    rng = np.random.default_rng(seed)
    shuffled = [int(x) for x in rng.permutation(D)]
    out = {}
    out["increasing"] = _steady_mean(
        sample, simulate_fixed_order(cube, sample, list(range(D))).delivery
    )
    out["decreasing"] = _steady_mean(
        sample, simulate_fixed_order(cube, sample, list(range(D - 1, -1, -1))).delivery
    )
    out[f"fixed shuffle {shuffled}"] = _steady_mean(
        sample, simulate_fixed_order(cube, sample, shuffled).delivery
    )
    out["random per packet"] = _steady_mean(
        sample, simulate_random_order(cube, sample, rng=seed + 1).delivery
    )
    return out


def run_experiment():
    lam = lam_for_load(RHO, P)
    lo = greedy_delay_lower_bound(D, lam, P)
    hi = greedy_delay_upper_bound(D, lam, P)
    out = run_orders(HORIZON, SEED)
    return [(name, t, lo, hi) for name, t in out.items()]


def test_e13_dim_order(benchmark):
    benchmark.pedantic(lambda: run_orders(120.0, SEED), rounds=3, iterations=1)
    rows = run_experiment()
    emit(
        "e13_dim_order",
        format_table(
            ["crossing order", "measured T", "Prop13 lower", "Prop12 upper"],
            rows,
            title=f"E13  dimension-order ablation (d={D}, rho={RHO}, p={P})",
        ),
    )
    t_inc = rows[0][1]
    for name, t, lo, hi in rows:
        # every ordering performs like the canonical one (within noise)
        assert abs(t - t_inc) / t_inc < 0.1, name
        assert lo * 0.9 <= t <= hi * 1.1, name
