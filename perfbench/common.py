"""Paths, percentiles and small measurement helpers shared by the
workloads."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of a run (stores, server state, span files); ignored by git
OUT = HERE / "out"

#: set-up is repeated this many times per run; the median is reported
SETUP_REPEATS = 3

#: a percentile needs this many samples beyond it to be reported
TAIL_SAMPLES = 10

#: hit latency is reported at p75 and p90, not at the median: on the
#: build host a pure-Python hit runs at about 90 us or about 150 us in
#: episodes of seconds, and the share of hits in the fast mode changes
#: from run to run.  Over five identical runs per simulation workload
#: the median spread 18-31 %, p75 9-10 % and p90 6 %
HIT_QUANTILES = (("hit_p75_ms", 0.75), ("hit_p90_ms", 0.9))
MISS_QUANTILES = (("miss_p50_s", 0.5), ("miss_p90_s", 0.9))


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: provenance: percentiles used, sample counts, failures seen
    notes: Dict[str, Any] = field(default_factory=dict)


def child_env() -> Dict[str, str]:
    """Environment for the processes a run starts: the checkout's
    sources first, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = str(scratch_dir("tmp"))
    return env


def scratch_dir(name: str, fresh: bool = False) -> Path:
    path = OUT / name
    if fresh and path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def tail_percentile(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """The *q*-quantile of *samples* and the quantile actually used.

    When fewer than :data:`TAIL_SAMPLES` samples lie beyond *q*, the
    highest quantile that has that many is used instead, but never one
    below the median.  Linear interpolation between order statistics.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    used = min(q, max(0.5, 1.0 - TAIL_SAMPLES / n))
    pos = used * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), used


def latency_metrics(
    slices: Sequence[Sequence[float]], quantiles: Sequence[Tuple[str, float]],
    scale: float, notes: Dict[str, Any],
) -> Dict[str, float]:
    """One metric per ``(name, quantile)``: the quantile of each slice
    of the run's samples, the lowest slice reported, scaled.  A run that
    pools its samples passes one slice.  The quantile actually used and
    the slice's sample count go to *notes*."""
    out = {}
    for name, q in quantiles:
        value, used, n = min(
            (*tail_percentile(s, q), len(s)) for s in slices if len(s)
        )
        out[name] = value * scale
        notes[name] = {
            "quantile_used": round(used, 4), "samples": n, "slices": len(slices)
        }
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup_probe(workload: str) -> float:
    """Median wall time of fresh interpreters doing *workload*'s
    set-up (``run.py --setup-probe``), from spawn to exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            env=child_env(), cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check(notes: Dict[str, Any], ok: bool, what: str) -> bool:
    """Record a failed check (at most a few are kept verbatim)."""
    if not ok:
        errors: List[str] = notes.setdefault("errors", [])
        if len(errors) < 10:
            errors.append(what)
    return ok
