"""The benchmark's own tests.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import common  # noqa: E402
import serve  # noqa: E402
import sim  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

TINY = {
    "levelled-fifo": [
        dict(name="hypercube", d=5, rho=0.7, horizon=6.0, replications=4),
        dict(name="butterfly", network="butterfly", d=4, rho=0.7, horizon=6.0,
             replications=4),
        dict(name="chunked", d=5, rho=0.7, horizon=30.0, replications=2,
             extra={"chunk_packets": 64}),
    ],
    "ps-and-cyclic": [
        dict(name="ps", d=4, rho=0.7, horizon=10.0, replications=2,
             discipline="ps"),
        dict(name="ring", network="ring", engine="fixedpoint", d=4, rho=0.7,
             horizon=40.0, replications=2),
        dict(name="random-order", scheme="random_order", d=3, rho=0.3,
             horizon=40.0, replications=4),
    ],
}
TINY_CATALOG = ["smoke", "ring-greedy", "butterfly-greedy-mid"]


# -- self-time arithmetic --------------------------------------------------


def test_self_times_on_nested_spans():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,6];  D[11,12] is a second root
    names = ["A", "B", "C", "D"]
    name = np.array([0, 1, 2, 1, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 6.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    own, roots = tracing.self_times(names, name, start, end, parent)
    assert own == {"A": 6.0, "B": 3.0, "C": 1.0, "D": 1.0}
    assert roots == 11.0 == sum(own.values())


def test_coroutine_spans_cover_only_running_steps():
    rec = tracing.Recorder()

    async def inner():
        await asyncio.sleep(0.02)
        return 7

    async def outer():
        return await traced_inner() + 1

    traced_inner = tracing._wrap(inner, rec, "inner", None)
    traced_outer = tracing._wrap(outer, rec, "outer", None)

    async def main():
        return await asyncio.gather(traced_outer(), traced_outer())

    rec.start_recording()
    assert asyncio.run(main()) == [8, 8]
    rec.stop_recording()
    own, roots = rec.self_times()
    # the two requests slept concurrently for 20 ms; the steps that
    # actually ran are tiny, and never overlap on the loop thread
    assert roots < 0.01
    assert sum(own.values()) == pytest.approx(roots)
    assert roots <= rec.wall
    parents = np.frombuffer(rec.parent, dtype=np.int32)
    names = [rec.names[i] for i in rec.name]
    assert all(
        names[p] == "outer" for n, p in zip(names, parents) if n == "inner"
    )


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))  # 100 samples
    assert common.tail_percentile(xs, 0.9) == (pytest.approx(90.1), 0.9)
    value, used = common.tail_percentile(xs, 0.99)
    assert used == pytest.approx(0.9)
    value, used = common.tail_percentile(xs[:12], 0.9)
    assert used == 0.5  # never below the median


# -- wrappers --------------------------------------------------------------


def test_wrappers_leave_results_bit_identical():
    import repro.runner.engine as engine

    specs = sim.build_specs("levelled-fifo", 3, TINY["levelled-fifo"])
    specs += sim.build_specs("ps-and-cyclic", 3, TINY["ps-and-cyclic"])
    original = engine.measure_many
    plain = engine.measure_many(specs, jobs=1)
    rec = tracing.Recorder()
    patches = tracing.install(rec, tracing.SIM_LAYERS)
    assert patches.missing == []
    assert engine.measure_many is not original
    rec.start_recording()
    try:
        traced = engine.measure_many(specs, jobs=1)
    finally:
        rec.stop_recording()
        patches.restore()
    assert engine.measure_many is original
    assert traced == plain
    assert [m.replication_delays for m in traced] == [
        m.replication_delays for m in plain
    ]
    assert rec.counts["feedforward.serve_level_calls"] > 0


def test_per_layer_names_match_the_layer_table():
    derived = {layer.metric for layer in tracing.LAYERS} | set(tracing.COUNTERS)
    derived |= {"store.hit_ratio", "jobs.queue_wait_s", "jobs.run_s",
                "traced_wall_s", "untraced_s", "trace_overhead"}
    assert derived == PER_LAYER


# -- every workload at a tiny size ------------------------------------------


def _check_layer_sum(metrics):
    self_times = sum(metrics[layer.metric] for layer in tracing.LAYERS)
    assert self_times + metrics["untraced_s"] == pytest.approx(
        metrics["traced_wall_s"], rel=1e-9
    )


@pytest.mark.parametrize("workload", ["levelled-fifo", "ps-and-cyclic"])
@pytest.mark.parametrize("trace", [False, True])
def test_sim_workload_tiny(workload, trace):
    out = sim.run(workload, 5, 0.2, trace, cells=TINY[workload], hits_per_cell=20)
    assert out.failed == 0 and out.attempted > 0, out.notes
    assert set(out.metrics) == (PER_LAYER if trace else END_TO_END)
    if trace:
        _check_layer_sum(out.metrics)
    else:
        assert all(v > 0 for v in out.metrics.values())


@pytest.mark.parametrize("trace", [False, True])
def test_serve_workload_tiny(trace):
    out = serve.run(7, 2.0, trace, names=TINY_CATALOG)
    assert out.failed == 0 and out.attempted > 0, out.notes
    assert out.notes["misses"] > 0
    assert set(out.metrics) == (PER_LAYER if trace else END_TO_END)
    if trace:
        _check_layer_sum(out.metrics)
        assert out.metrics["app.route_s"] > 0
    else:
        assert all(v > 0 for v in out.metrics.values())
