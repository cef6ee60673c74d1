"""Registry dispatch baseline: per-scenario wall time + dispatch overhead.

Emits ``benchmarks/results/BENCH_dispatch.json`` so the performance
trajectory of the plugin machinery finally has a tracked baseline:

* ``dispatch_s`` — time to resolve the scheme plugin through the
  registry and build the batch runner (``get_plugin(...).
  batch_runner(spec)``): the pure plugin-API overhead, which
  ``measure_many`` pays once per spec.  Best of ``DISPATCH_REPEATS``
  timings.
* ``run_s`` — wall time of one replication (seeded, single process).
* ``validate_s`` — time to re-validate the spec through the
  scheme x network capability cross-product (``spec.replace()``).

Long-horizon scenarios are clamped to ``MAX_HORIZON`` so the whole
sweep stays minutes-scale; the clamp is recorded per scenario, so the
numbers are only comparable at equal ``horizon``.

Run with::

    python benchmarks/bench_registry.py          # or pytest benchmarks/
"""

import json
import time

from repro.rng import replication_seeds
from repro.runner import list_scenarios
from repro.sim.run_spec import run_spec

from _common import RESULTS_DIR

#: clamp for the heavy catalog cells (hypercube-greedy-heavy etc.)
MAX_HORIZON = 400.0
DISPATCH_REPEATS = 5


def _batch_runner(spec):
    from repro.plugins.registry import get_plugin

    return get_plugin(spec.scheme).batch_runner(spec)


def run_experiment():
    results = {}
    for spec in list_scenarios():
        spec1 = spec.replace(
            replications=1,
            horizon=min(spec.horizon, MAX_HORIZON),
        )
        t0 = time.perf_counter()
        spec1.replace(base_seed=spec1.base_seed)  # full re-validation
        validate_s = time.perf_counter() - t0

        dispatch_s = float("inf")
        for _ in range(DISPATCH_REPEATS):
            t0 = time.perf_counter()
            _batch_runner(spec1)
            dispatch_s = min(dispatch_s, time.perf_counter() - t0)

        seed = replication_seeds(spec1.base_seed, 1, spec1.seed_policy)[0]
        t0 = time.perf_counter()
        out = run_spec(spec1, seed)
        run_s = time.perf_counter() - t0

        results[spec.name] = {
            "network": spec1.network,
            "scheme": spec1.scheme,
            "discipline": spec1.discipline,
            "engine": spec1.engine,
            "horizon": spec1.horizon,
            "horizon_clamped": spec1.horizon != spec.horizon,
            "num_packets": out.num_packets,
            "validate_s": round(validate_s, 6),
            "dispatch_s": round(dispatch_s, 6),
            "run_s": round(run_s, 6),
        }
    return results


def emit_json(results):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_dispatch.json"
    payload = {
        "description": "per-scenario wall time and plugin-dispatch overhead "
        "(one replication, single process, seeded)",
        "scenarios": results,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def test_dispatch_baseline():
    results = run_experiment()
    path = emit_json(results)
    # dispatch overhead must stay negligible next to the simulation
    # itself: batch_runner() does no sampling, so give it a loose ceiling
    for name, cell in results.items():
        assert cell["dispatch_s"] < 0.1, (name, cell)
        assert cell["run_s"] > 0.0
    # every registered scenario made it into the baseline
    assert len(results) == len(list_scenarios())
    print(f"\n[written to {path}]")


if __name__ == "__main__":
    path = emit_json(run_experiment())
    print(f"written {path}")
