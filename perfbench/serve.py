"""The ``serve-zipf`` workload: the measurement server under a closed
loop of concurrent clients.

The server (``server.py``) runs in its own process with ``nproc - 1``
pool workers on a fresh cache directory, which set-up prefills with the
hot set: every catalog entry at the benchmark's size overrides.  Then
``nproc`` client threads each send one request at a time.  A request
POSTs ``{"scenario": name, **SIZES}`` with names drawn by Zipf
popularity over the catalog; every :data:`MISS_EVERY`-th request of a
client adds a ``base_seed`` never used before, and that miss is
followed over server-sent events to its terminal result.

The catalog is the registered scenarios whose packets follow greedy
paths (schemes ``greedy`` and ``random_order``), so the benchmark can
count the hops the misses simulated, minus :data:`EXCLUDED`.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    HERE,
    HIT_QUANTILES,
    MISS_QUANTILES,
    OUT,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    check,
    child_env,
    latency_metrics,
    scratch_dir,
)

# The traffic mix.  No request log of the server exists to fit it to, so
# these values are an assumption, not a measurement: a results server
# shared by a few people who mostly re-ask for catalog scenarios at a
# quick size and now and then ask for a fresh seed.  A change to any of
# them is a change of the workload.
#: size overrides on every request (a miss costs tens of ms of pool time)
SIZES = {"replications": 2, "horizon": 40.0}
#: every MISS_EVERY-th request of a client is a miss
MISS_EVERY = 20
#: Zipf exponent over the catalog's popularity ranks (name order)
ZIPF_S = 1.0
#: each client pauses this long between requests.  Chosen for steadiness,
#: not realism: it keeps the server below saturation, so hit latency is
#: service time more than queueing behind the other client
THINK_S = 0.001
#: names are dealt from shuffled decks (one for hits, one for misses,
#: each shared by all clients) holding every name in proportion to its
#: Zipf weight, so each run deals whole passes of nearly the same mix
DECK_SIZE = 100
#: hit latencies are taken per window of this many seconds and the best
#: window is reported.  The hit tail is set by CPU contention with the
#: pool worker running a miss, and how much of a run that covers varies:
#: over five identical runs, p90 of all hits spread 23 %, p90 of the
#: best window 14 %
HIT_WINDOW_S = 1.0
#: share of a traced run spent with recording off, for trace_overhead
UNTRACED_SHARE = 1 / 3
TERMINAL = ("done", "failed", "cancelled")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: catalog entries left out (reasons inline)
EXCLUDED = {
    # on-off arrivals leave the steady-state window of a short run empty
    # for about one seed in five, which the program rightly refuses
    "hypercube-greedy-bursty-onoff",
}


def catalog() -> List[str]:
    from repro.runner.registry import list_scenarios

    return [
        s.name for s in list_scenarios()
        if s.scheme in ("greedy", "random_order") and s.name not in EXCLUDED
    ]


def zipf_deck(names: List[str]) -> List[str]:
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(names))]
    total = sum(weights)
    return [
        name
        for name, w in zip(names, weights)
        for _ in range(max(1, round(DECK_SIZE * w / total)))
    ]


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


# The client speaks raw sockets: a prebuilt request out, the response
# read up to its Content-Length, parsed after the clock stops.  That
# keeps the load generator's own CPU time (it shares the host's cores
# with the server and its pool) small and steady.


def request_bytes(method: str, path: str, payload: Optional[dict] = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def exchange(port: int, data: bytes) -> Tuple[bytes, bytes]:
    """Send one request; the response's head and body.

    The body is delimited by ``Content-Length``, not by the close: a
    pool worker forked while a connection was open holds its socket.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(data)
        buf = b""
        while b"\r\n\r\n" not in buf:
            buf += _recv(sock)
        head, _, body = buf.partition(b"\r\n\r\n")
        length = int(re.search(rb"(?im)^content-length:\s*(\d+)", head).group(1))
        while len(body) < length:
            body += _recv(sock)
    return head, body


def _recv(sock: socket.socket) -> bytes:
    chunk = sock.recv(65536)
    if not chunk:
        raise RuntimeError("connection closed mid-response")
    return chunk


def parse(response: Tuple[bytes, bytes]) -> Tuple[int, dict]:
    head, body = response
    return int(head.split(b" ", 2)[1]), json.loads(body)


def post(port: int, payload: dict) -> Tuple[int, dict]:
    return parse(exchange(port, request_bytes("POST", "/v1/measure", payload)))


def get(port: int, path: str) -> Tuple[int, dict]:
    return parse(exchange(port, request_bytes("GET", path)))


def follow(port: int, job: str) -> Tuple[str, dict]:
    """Read a job's event stream up to its terminal event."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(request_bytes("GET", f"/v1/jobs/{job}/events"))
        event = None
        with sock.makefile("rb") as stream:
            for raw in stream:
                line = raw.decode().rstrip("\r\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event in TERMINAL:
                    return event, json.loads(line[len("data: "):])
    raise RuntimeError(f"event stream of job {job} ended early")


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``server.py`` process on a fresh cache directory."""

    def __init__(self, name: str, workers: int, trace: bool) -> None:
        self.dir = scratch_dir(name, fresh=True)
        self.summary_path = self.dir / "summary.json"
        self.trace_path = OUT / "serve-zipf-spans.json" if trace else None
        ready = self.dir / "ready.json"
        cmd = [
            sys.executable, str(HERE / "server.py"),
            "--cache-dir", str(self.dir / "cache"), "--workers", str(workers),
            "--ready", str(ready), "--summary", str(self.summary_path),
        ]
        if trace:
            cmd += ["--trace", str(self.trace_path)]
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT)
        deadline = time.monotonic() + 120
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start")
            time.sleep(0.005)
        self.port = json.loads(ready.read_text())["port"]

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> Optional[dict]:
        """SIGTERM, wait, and return the summary it wrote (``None``
        when it had to be killed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0 or not self.summary_path.exists():
            return None
        return json.loads(self.summary_path.read_text())


def start_and_prefill(index: int, workers: int, trace: bool, names: List[str]):
    """Start a server and prefill its cache with the hot set."""
    server = Server(f"serve-{index}", workers, trace)
    try:
        jobs = []
        for name in names:
            status, body = post(server.port, {"scenario": name, **SIZES})
            if status != 202:
                raise RuntimeError(f"prefill of {name}: HTTP {status} {body}")
            jobs.append(body["job"])
        for job in jobs:
            while True:
                _, body = get(server.port, f"/v1/jobs/{job}")
                if body["state"] in TERMINAL:
                    break
                time.sleep(0.005)
            if body["state"] != "done":
                raise RuntimeError(f"prefill job {job}: {body}")
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Dealer:
    """Deals names from a Zipf deck, reshuffled every pass (thread-safe)."""

    def __init__(self, names: List[str], rng: random.Random) -> None:
        self._deck = zipf_deck(names)
        self._rng = rng
        self._pos = len(self._deck)
        self._lock = threading.Lock()

    def deal(self) -> str:
        with self._lock:
            if self._pos == len(self._deck):
                self._rng.shuffle(self._deck)
                self._pos = 0
            self._pos += 1
            return self._deck[self._pos - 1]


class Client(threading.Thread):
    def __init__(self, index, seed, port, dealers, expected, deadline):
        super().__init__(name=f"client-{index}")
        self.index, self.seed, self.port = index, seed, port
        self.hit_names, self.miss_names = dealers
        self.expected = expected
        self.deadline = deadline
        self.notes: Dict[str, Any] = {}
        #: (start, latency) per answered request
        self.hits: List[Tuple[float, float]] = []
        self.misses: List[Tuple[float, float]] = []
        #: (spec payload, result dict) per miss, checked after the loop
        self.miss_results: List[Tuple[dict, dict]] = []
        self.attempted = self.failed = 0

    def run(self) -> None:
        i = 0
        while time.perf_counter() < self.deadline:
            miss = i % MISS_EVERY == MISS_EVERY - 1
            dealer = self.miss_names if miss else self.hit_names
            payload = {"scenario": dealer.deal(), **SIZES}
            if miss:
                payload["base_seed"] = (
                    10**9 + self.seed * 10**6 + self.index * 10**5 + i
                )
            i += 1
            self.attempted += 1
            data = request_bytes("POST", "/v1/measure", payload)
            try:
                ok = self._miss(payload, data) if miss else self._hit(payload, data)
            except Exception as exc:  # the loop goes on; the request failed
                ok = check(self.notes, False, f"{payload}: {exc!r}")
            self.failed += not ok
            time.sleep(THINK_S)

    def _hit(self, payload, data) -> bool:
        t0 = time.perf_counter()
        response = exchange(self.port, data)
        dt = time.perf_counter() - t0
        status, body = parse(response)
        ok = check(
            self.notes,
            status == 200 and body.get("cache") == "hit"
            and body["result"] == self.expected[payload["scenario"]],
            f"hit {payload['scenario']}: HTTP {status}",
        )
        if ok:
            self.hits.append((t0, dt))
        return ok

    def _miss(self, payload, data) -> bool:
        t0 = time.perf_counter()
        status, body = parse(exchange(self.port, data))
        if not check(self.notes, status == 202, f"miss {payload}: HTTP {status}"):
            return False
        state, snap = follow(self.port, body["job"])
        dt = time.perf_counter() - t0
        if not check(self.notes, state == "done", f"miss {payload}: {state}"):
            return False
        self.misses.append((t0, dt))
        self.miss_results.append((payload, snap["result"]))
        return True


def spec_of(payload: dict):
    """The ScenarioSpec a ``{"scenario": name, **overrides}`` body names."""
    from repro.runner.registry import get_scenario

    overrides = {k: v for k, v in payload.items() if k != "scenario"}
    return get_scenario(payload["scenario"]).replace(**overrides)


def _expected(payload: dict) -> dict:
    """The result dict an in-process ``measure`` gives, as JSON reads it."""
    import repro.runner.engine as engine
    from repro.runner.results import measurement_to_dict

    measurement = engine.measure(spec_of(payload))
    return json.loads(json.dumps(measurement_to_dict(measurement)))


def run(seed: int, seconds: float, trace: bool, names: Optional[List[str]] = None) -> Outcome:
    from sim import count_hops

    names = catalog() if names is None else names
    workers = max(1, nproc() - 1)
    clients_n = nproc()
    notes: Dict[str, Any] = {"clients": clients_n, "workers": workers}

    setups = []
    server = None
    for i in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        server = start_and_prefill(i, workers, trace, names)
        setups.append(time.perf_counter() - t0)
    try:
        expected = {name: _expected({"scenario": name, **SIZES}) for name in names}
        dealers = (
            Dealer(names, random.Random(f"{seed}/hits")),
            Dealer(names, random.Random(f"{seed}/misses")),
        )
        t_start = time.perf_counter()
        t_switch = t_start + seconds * UNTRACED_SHARE
        deadline = t_start + seconds
        clients = [
            Client(c, seed, server.port, dealers, expected, deadline)
            for c in range(clients_n)
        ]
        for client in clients:
            client.start()
        if trace:
            time.sleep(max(0.0, t_switch - time.perf_counter()))
            server.signal(signal.SIGUSR1)
        for client in clients:
            client.join()
        wall = time.perf_counter() - t_start
    finally:
        summary = server.stop()
    if summary is None:
        raise RuntimeError("server did not shut down cleanly")

    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    for client in clients:
        for error in client.notes.get("errors", []):
            check(notes, False, error)
    hits = [h for c in clients for h in c.hits]
    misses = [m for c in clients for m in c.misses]
    hops = 0
    for payload, result in (r for c in clients for r in c.miss_results):
        attempted += 1
        ok = check(notes, result == _expected(payload), f"miss {payload}: result differs")
        failed += not ok
        hops += count_hops(spec_of(payload))
    notes.update(hits=len(hits), misses=len(misses))

    if trace:
        layers = summary["layers"]
        requests = max(1, sum(1 for t0, _ in hits + misses if t0 >= t_switch))
        metrics = {k: v / requests for k, v in layers.items()}
        metrics["store.hit_ratio"] = layers["store.hit_ratio"]
        jobs = summary["jobs"]
        metrics["jobs.queue_wait_s"] = statistics.fmean(
            [s - c for c, s, _ in jobs]) if jobs else 0.0
        metrics["jobs.run_s"] = statistics.fmean(
            [e - s for _, s, e in jobs]) if jobs else 0.0
        metrics["trace_overhead"] = statistics.median(
            [dt for t0, dt in hits if t0 >= t_switch]
        ) / statistics.median([dt for t0, dt in hits if t0 < t_switch])
        notes["per_layer_unit"] = "per request (jobs.queue_wait_s, jobs.run_s: per miss)"
        notes["unwrapped"] = summary["unwrapped"]
        return Outcome(metrics, attempted, failed, notes)

    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": summary["peak_rss_mb"],
        "hops_per_s": hops / wall,
        "requests_per_s": (len(hits) + len(misses)) / wall,
    }
    windows: Dict[int, List[float]] = {}
    for t0, dt in hits:
        windows.setdefault(int((t0 - t_start) / HIT_WINDOW_S), []).append(dt)
    metrics.update(latency_metrics(list(windows.values()), HIT_QUANTILES, 1e3, notes))
    metrics.update(latency_metrics(
        [[dt for _, dt in misses]], MISS_QUANTILES, 1.0, notes))
    return Outcome(metrics, attempted, failed, notes)
