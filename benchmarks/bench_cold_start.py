"""Cold-start baseline: what a fresh process pays before its first answer.

Emits ``BENCH_cold_start.json`` at the **repo root** with the median
wall time of ``ROUNDS`` fresh interpreters for each of:

* ``python_s``          — ``python -c pass``, the interpreter alone;
* ``import_numpy_s``    — ``import numpy``, the floor under any import
  of the package;
* ``import_runner_s``   — ``import repro.runner``: the registries, the
  scenario catalog and everything a CLI call or a server start loads;
* ``list_scenarios_s``  — ``python -m repro list-scenarios``;
* ``measure_smoke_s``   — ``import repro.runner`` plus one
  ``measure(get_scenario("smoke"))``, the whole path to a first pooled
  interval (which is where ``scipy.special`` loads).

``runner_import_vs_numpy = import_runner_s / import_numpy_s`` is the
gated figure: both sides are timed in the same run, interleaved round by
round, so host drift cancels.  ``scipy_modules_after_import`` lists
every ``scipy`` module that ``import repro.runner`` leaves in
``sys.modules`` (empty: scipy loads at the first pooled interval).

Run with::

    python benchmarks/bench_cold_start.py
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh interpreters per command (the median is recorded)
ROUNDS = 7

#: timed commands, as ``python`` arguments
COMMANDS = {
    "python_s": ["-c", "pass"],
    "import_numpy_s": ["-c", "import numpy"],
    "import_runner_s": ["-c", "import repro.runner"],
    "list_scenarios_s": ["-m", "repro", "list-scenarios"],
    "measure_smoke_s": [
        "-c",
        "from repro.runner import get_scenario, measure\n"
        "measure(get_scenario('smoke'))",
    ],
}

SCIPY_AFTER_IMPORT = (
    "import json, sys\n"
    "import repro.runner\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


def _env():
    """This checkout's sources first on the path of every child."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _fresh(args, env):
    """Wall time of one fresh interpreter running *args*, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=300,
    )
    return time.perf_counter() - t0, proc.stdout


def run_experiment():
    env = _env()
    times = {key: [] for key in COMMANDS}
    # round-robin over the commands, so drift hits each one alike
    for _ in range(ROUNDS):
        for key, args in COMMANDS.items():
            times[key].append(_fresh(args, env)[0])
    medians = {key: round(statistics.median(ts), 4) for key, ts in times.items()}
    _, scipy_out = _fresh(["-c", SCIPY_AFTER_IMPORT], env)
    return {
        "host_cpu_cores": os.cpu_count() or 1,
        "rounds": ROUNDS,
        **medians,
        "runner_import_vs_numpy": round(
            medians["import_runner_s"] / medians["import_numpy_s"], 2
        ),
        "scipy_modules_after_import": json.loads(scipy_out),
    }


def emit_json(results):
    path = ROOT / "BENCH_cold_start.json"
    payload = {
        "description": "median wall time of fresh interpreters: the bare "
        "interpreter, import numpy, import repro.runner, repro "
        "list-scenarios, and import plus one pooled smoke measurement",
        **results,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def test_cold_start_benchmark():
    results = run_experiment()
    path = emit_json(results)
    assert results["scipy_modules_after_import"] == []
    print(f"\n[written to {path}]")


if __name__ == "__main__":
    results = run_experiment()
    path = emit_json(results)
    print(json.dumps(results, indent=1))
    print(f"written {path}")
    if results["scipy_modules_after_import"]:
        sys.exit(1)
