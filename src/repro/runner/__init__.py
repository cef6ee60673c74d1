"""Scenario registry + parallel experiment engine.

The measurement protocol used throughout the repository — fix an
operating point, simulate a horizon, trim warm-up/cool-down, pool
independent replications into a confidence interval — as a declarative
subsystem:

* :class:`ScenarioSpec` — one frozen experiment cell, validated
  against the capabilities its scheme's plugin declares
  (:mod:`repro.plugins`);
* :func:`register` / :func:`get_scenario` / :func:`list_scenarios` —
  the name-based catalog covering every scheme in the library;
* :func:`measure` / :func:`measure_many` — multiprocessing-parallel
  replication fan-out with centralized seed spawning;
* :class:`ResultsStore` — content-hash-addressed JSON cache (pooled
  measurements plus per-replication cells) so repeated runs skip
  already-computed work;
* :class:`DelayMeasurement` — the pooled result record.

The scheme vocabulary is open: :func:`repro.plugins.available_schemes`
enumerates whatever plugins are registered (built-ins plus
``repro.scheme_plugins`` entry points), replacing the old hard-coded
``SCHEMES`` tuple.

Quickstart::

    from repro.runner import get_scenario, measure

    m = measure(get_scenario("hypercube-greedy-mid"), jobs=4)
    print(m.mean_delay, m.ci.halfwidth, m.within_bounds)
"""

from repro.networks.registry import available_networks
from repro.plugins.registry import (
    available_schemes,
    get_plugin,
    iter_plugins,
)
from repro.runner.engine import (
    MeasureProgress,
    MeasurementCancelled,
    measure,
    measure_many,
    run_replication,
    theory_bounds,
)
from repro.runner.registry import (
    get_scenario,
    list_scenarios,
    register,
    scenario_names,
)
from repro.runner.results import DelayMeasurement
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ResultsStore

__all__ = [
    "ScenarioSpec",
    "DelayMeasurement",
    "ResultsStore",
    "MeasureProgress",
    "MeasurementCancelled",
    "available_networks",
    "available_schemes",
    "get_plugin",
    "iter_plugins",
    "register",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "measure",
    "measure_many",
    "run_replication",
    "theory_bounds",
]
