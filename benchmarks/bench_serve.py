"""Serving-layer baseline: cache-hit latency and miss throughput.

Emits ``BENCH_serve.json`` at the **repo root**, next to
``BENCH_engines.json``, pinning what the ``repro serve`` tier adds on
top of the engine numbers:

* ``hit_latency_s`` — p50/p99 over repeated ``POST /v1/measure`` of an
  already-cached spec: the full socket + parse + content-hash + store
  probe round trip, the operation a busy server performs millions of
  times.  The smoke gate asserts p50 under 100 ms (locally it is
  single-digit milliseconds).
* ``miss`` — wall-clock and throughput for a fleet of
  **distinct** specs POSTed together and drained through the worker
  pool at ``--workers 2``, measured POST-to-terminal (replications per
  second across the fleet).
* ``cancel`` — a cancelled job's round trip: POST, cancel mid-run,
  verify the persisted per-replication cells, resubmit, and confirm
  the resumed job reuses them (``resumed_cached`` > 0 whenever the
  cancel landed mid-run).

The exercise doubles as the CI smoke: every step asserts its
functional contract (hit served from cache, cancel honoured, resume
from cells) before timing is recorded.

Run with::

    python benchmarks/bench_serve.py            # full (the pinned JSON)
    python benchmarks/bench_serve.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.runner import ResultsStore  # noqa: E402
from repro.serve import ServerThread  # noqa: E402

#: the cached cell whose hit latency is pinned
HIT_SPEC = {"name": "bench-hit", "d": 4, "rho": 0.6, "horizon": 120.0,
            "replications": 4}
#: distinct cells drained through the pool for the miss-throughput leg
FULL_MISSES = 8
QUICK_MISSES = 4
MISS_SPEC = {"name": "bench-miss", "d": 4, "rho": 0.5, "horizon": 200.0,
             "replications": 8}
#: the cancel leg: big enough that the cancel lands mid-run
CANCEL_SPEC = {"name": "bench-cancel", "d": 6, "rho": 0.8,
               "horizon": 1500.0, "replications": 40}
QUICK_CANCEL = {"name": "bench-cancel", "d": 5, "rho": 0.8,
                "horizon": 800.0, "replications": 24}
HIT_SAMPLES = 200
QUICK_HIT_SAMPLES = 50


def request(method, url, payload=None, timeout=300.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def poll_terminal(base, job_id, timeout=600.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = request("GET", f"{base}/v1/jobs/{job_id}")
        if body["state"] in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.05)
    raise RuntimeError(f"job {job_id} never finished")


def bench_hits(base, samples):
    """POST a spec once to fill the cache, then time repeated hits."""
    status, body = request("POST", f"{base}/v1/measure", HIT_SPEC)
    assert status == 202, body
    assert poll_terminal(base, body["job"])["state"] == "done"
    latencies = []
    for _ in range(samples):
        t0 = time.perf_counter()
        status, body = request("POST", f"{base}/v1/measure", HIT_SPEC)
        latencies.append(time.perf_counter() - t0)
        assert status == 200 and body["cache"] == "hit", body
    latencies.sort()
    return {
        "samples": samples,
        "p50": round(statistics.median(latencies), 6),
        "p99": round(latencies[int(0.99 * (len(latencies) - 1))], 6),
        "max": round(latencies[-1], 6),
    }


def bench_misses(base, count):
    """POST *count* distinct specs at once; drain through the pool."""
    t0 = time.perf_counter()
    jobs = []
    for i in range(count):
        spec = dict(MISS_SPEC, base_seed=i)
        status, body = request("POST", f"{base}/v1/measure", spec)
        assert status == 202, body
        jobs.append(body["job"])
    for job_id in jobs:
        assert poll_terminal(base, job_id)["state"] == "done", job_id
    elapsed = time.perf_counter() - t0
    reps = count * MISS_SPEC["replications"]
    return {
        "specs": count,
        "replications": reps,
        "wall_s": round(elapsed, 3),
        "throughput_rps": round(reps / elapsed, 2),
    }


def bench_cancel(base, store_root, spec):
    """Cancel mid-run, then resubmit and confirm the resume."""
    before = ResultsStore(store_root).stats().replications
    status, body = request("POST", f"{base}/v1/measure", spec)
    assert status == 202, body
    job_id = body["job"]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        _, state = request("GET", f"{base}/v1/jobs/{job_id}")
        if state["progress"]["completed"] >= 1 or state["state"] in (
            "done", "failed", "cancelled",
        ):
            break
        time.sleep(0.02)
    request("DELETE", f"{base}/v1/jobs/{job_id}")
    terminal = poll_terminal(base, job_id)
    persisted = ResultsStore(store_root).stats().replications - before
    status, body = request("POST", f"{base}/v1/measure", spec)
    resumed_cached = 0
    if status == 202:
        resumed = poll_terminal(base, body["job"])
        assert resumed["state"] == "done", resumed
        resumed_cached = resumed["progress"]["cached"]
    if terminal["state"] == "cancelled":
        # the whole point: the resumed job reused the persisted cells
        assert resumed_cached >= 1, (persisted, resumed_cached)
    return {
        "cancel_honoured": terminal["state"] == "cancelled",
        "persisted_replications": persisted,
        "resumed_cached": resumed_cached,
        "total": spec["replications"],
    }


def main() -> int:
    quick = "--quick" in sys.argv
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        cache_dir = Path(tmp) / "cache"
        server = ServerThread(cache_dir=cache_dir, workers=2).start()
        try:
            base = server.base_url
            hits = bench_hits(
                base, QUICK_HIT_SAMPLES if quick else HIT_SAMPLES
            )
            misses = bench_misses(
                base, QUICK_MISSES if quick else FULL_MISSES
            )
            cancel = bench_cancel(
                base, cache_dir, QUICK_CANCEL if quick else CANCEL_SPEC
            )
        finally:
            server.stop()
    payload = {
        "benchmark": "serve",
        "quick": quick,
        "workers": 2,
        "host_cpu_cores": os.cpu_count(),
        "hit_latency_s": hits,
        "miss": misses,
        "cancel": cancel,
    }
    path = ROOT / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
