"""Golden regression suite: bit-identical dispatch across refactors.

One pinned mean-delay value per (scheme, network, discipline) cell at a
fixed seed, computed from the pre-plugin ``_DISPATCH`` table.  The RNG
consumption order of every scheme adapter is part of the public
contract — migrating the dispatch to the plugin registry (or any later
refactor of the adapters) must reproduce these numbers **exactly**, not
merely to statistical agreement.  Each cell is additionally asserted
through the replication-**batched** engine path: a batch of R
replications must be bit-identical to R sequential runs.

If a change legitimately alters the physics (never the plumbing), the
values may be regenerated with::

    PYTHONPATH=src python tests/test_golden_dispatch.py

which prints a fresh ``GOLDEN`` block.
"""

from __future__ import annotations

import pytest

from repro.runner.spec import ScenarioSpec
from repro.sim.run_spec import run_spec

_COMMON = dict(replications=1, base_seed=123, seed_policy="sequential")

#: every (scheme, network, discipline) cell the dispatch supports, plus
#: the forced-event greedy cells (engine choice must not move a FIFO
#: number by a single bit).
GOLDEN_SPECS = [
    ScenarioSpec(name="g-greedy-hc-fifo", d=4, rho=0.7, horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-greedy-hc-ps", discipline="ps", d=4, rho=0.7,
                 horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-greedy-hc-event", engine="event", d=4, rho=0.7,
                 horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-greedy-bf-fifo", network="butterfly", d=3, rho=0.7,
                 horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-greedy-bf-ps", network="butterfly", discipline="ps",
                 d=3, rho=0.7, horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-greedy-ring-fifo", network="ring", d=4, rho=0.7,
                 horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-greedy-ring-ps", network="ring", discipline="ps",
                 d=4, rho=0.6, horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-greedy-ring-event", network="ring", engine="event",
                 d=4, rho=0.7, horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-greedy-ring-clockwise", network="ring", d=4, rho=0.7,
                 horizon=150.0, extra={"direction": "clockwise"}, **_COMMON),
    ScenarioSpec(name="g-greedy-torus-fifo", network="torus", d=2, rho=0.7,
                 horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-greedy-torus-ps", network="torus", discipline="ps",
                 d=2, rho=0.6, horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-greedy-torus-event", network="torus", engine="event",
                 d=2, rho=0.7, horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-slotted-hc-fifo", scheme="slotted", d=4, rho=0.75,
                 horizon=200.0, extra={"tau": 0.5}, **_COMMON),
    ScenarioSpec(name="g-random-order-hc-fifo", scheme="random_order", d=4,
                 rho=0.8, horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-twophase-hc-fifo", scheme="twophase", d=4, lam=0.5,
                 horizon=150.0, **_COMMON),
    ScenarioSpec(name="g-pipelined-batch-hc-fifo", scheme="pipelined_batch",
                 d=4, rho=0.05, horizon=200.0, **_COMMON),
    ScenarioSpec(name="g-deflection-hc-fifo", scheme="deflection", d=4,
                 lam=0.8, horizon=300.0, **_COMMON),
    ScenarioSpec(name="g-static-greedy-hc-fifo", scheme="static_greedy", d=5,
                 horizon=1.0, warmup_fraction=0.0, cooldown_fraction=0.0,
                 extra={"perm": "bitrev"}, **_COMMON),
    ScenarioSpec(name="g-static-valiant-hc-fifo", scheme="static_valiant",
                 d=5, horizon=1.0, warmup_fraction=0.0, cooldown_fraction=0.0,
                 extra={"perm": "bitrev"}, **_COMMON),
]

#: name -> (mean_delay, num_packets, metrics) — exact floats, not approx.
GOLDEN = {
    "g-greedy-hc-fifo": (4.182211256395824, 4516, ()),
    "g-greedy-hc-ps": (7.089735355641364, 4516, ()),
    "g-greedy-hc-event": (4.182211256395824, 4516, ()),
    "g-greedy-bf-fifo": (6.001409534737611, 2265, ()),
    "g-greedy-bf-ps": (11.17466906563258, 2265, ()),
    # ring/torus: the fixed-point engine is the native one; the forced
    # event cells pin that both engines produce the same FIFO sample
    # path bit for bit, exactly like the hypercube pair above
    "g-greedy-ring-fifo": (6.027571894534329, 761, ()),
    "g-greedy-ring-ps": (9.590600782641117, 654, ()),
    "g-greedy-ring-event": (6.027571894534329, 761, ()),
    "g-greedy-ring-clockwise": (11.384610392699296, 232, ()),
    "g-greedy-torus-fifo": (4.170495767807324, 2265, ()),
    "g-greedy-torus-ps": (4.5199929095388285, 1943, ()),
    "g-greedy-torus-event": (4.170495767807324, 2265, ()),
    "g-slotted-hc-fifo": (4.216748017083588, 4658, ()),
    "g-random-order-hc-fifo": (5.871088631928394, 3873, ()),
    "g-twophase-hc-fifo": (5.543979359488571, 1219, (("mean_hops", 4.0),)),
    "g-pipelined-batch-hc-fifo": (
        4.141662511652928,
        330,
        (
            ("delivered_fraction", 1.0),
            ("final_backlog", 0.0),
            ("mean_round_duration", 3.0454545454545454),
        ),
    ),
    "g-deflection-hc-fifo": (
        2.529313232830821,
        3745,
        (("mean_deflections", 0.46194926568758343),),
    ),
    "g-static-greedy-hc-fifo": (2.0, 32, (("makespan", 4.0),)),
    "g-static-valiant-hc-fifo": (4.3125, 32, (("makespan", 9.0),)),
}


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.name)
def test_golden_cell_is_bit_identical(spec):
    mean, packets, metrics = GOLDEN[spec.name]
    out = run_spec(spec, spec.base_seed)
    assert out.mean_delay == mean  # exact: no tolerance
    assert out.num_packets == packets
    assert out.metrics == metrics


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.name)
def test_golden_cell_batched_is_bit_identical(spec):
    """Every golden cell must reproduce its pinned value **through its
    scheme's batch runner**: a batch of R replications is bit-identical
    to R single runs, replication 0 of which is the golden cell
    itself."""
    from repro.rng import replication_seeds

    reps = 3
    grown = spec.replace(replications=reps)
    runner = grown.plugin.batch_runner(grown)
    seeds = replication_seeds(grown.base_seed, reps, grown.seed_policy)
    batched = runner(seeds)
    assert len(batched) == reps
    mean, packets, metrics = GOLDEN[spec.name]
    assert batched[0].mean_delay == mean  # exact: no tolerance
    assert batched[0].num_packets == packets
    assert batched[0].metrics == metrics
    sequential = [run_spec(grown, seed) for seed in seeds]
    assert batched == sequential


def test_every_scheme_has_a_golden_cell():
    """The suite stays exhaustive as schemes are added: every registered
    scheme/network cell must pin at least one golden value."""
    from repro.runner import list_scenarios

    golden_cells = {(s.scheme, s.network) for s in GOLDEN_SPECS}
    catalog_cells = {(s.scheme, s.network) for s in list_scenarios()}
    missing = catalog_cells - golden_cells
    assert not missing, f"schemes without a golden cell: {sorted(missing)}"


if __name__ == "__main__":  # regeneration helper
    for s in GOLDEN_SPECS:
        o = run_spec(s, s.base_seed)
        print(f'    "{s.name}": ({o.mean_delay!r}, {o.num_packets}, {o.metrics!r}),')
