"""The repository's benchmark: three workloads, timed end to end and,
in a separate traced run, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload levelled-fifo --seed 0 \\
        --seconds 25 --trace 0

Workloads: ``levelled-fifo`` and ``ps-and-cyclic`` (in process, see
``sim.py``) and ``serve-zipf`` (the HTTP server, see ``serve.py``).
With ``--trace 0`` the result carries every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  The
last line of standard output is the result object; the line before it
is the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("levelled-fifo", "ps-and-cyclic", "serve-zipf")


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2],
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed results as reference.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tempfile

    from common import scratch_dir

    tempfile.tempdir = str(scratch_dir("tmp"))
    import sim

    if args.setup_probe:
        sim.setup_probe(args.setup_probe)
        return 0
    if args.write_reference:
        sim.write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload == "serve-zipf":
        import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = sim.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(outcome.metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ {m['name'] for m in declared})}"
        )
    provenance = _provenance(args)
    provenance["error_rate"] = outcome.failed / outcome.attempted
    provenance.update(outcome.notes)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
