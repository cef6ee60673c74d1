"""The measurement server: routes + lifecycle.

``repro serve`` binds an asyncio TCP server speaking the minimal
HTTP/1.1 of :mod:`repro.serve.http` and exposes the results cache and
the scenario catalog as a service:

* ``POST /v1/measure``          — ScenarioSpec JSON in; a pooled-cache hit
  answers instantly (200), a miss queues a job (202) on the worker pool.
* ``GET  /v1/jobs/<id>``        — job state, progress, terminal result.
* ``GET  /v1/jobs/<id>/events`` — the same as server-sent events: a
  ``progress`` beat whenever the worker's progress file changes (read
  every :data:`PROGRESS_HEARTBEAT_S`), and the terminal event as soon
  as the job ends (the stream waits on the job's future, not a timer).
* ``DELETE /v1/jobs/<id>``      — cooperative cancel (persisted
  replications survive, so resubmitting resumes).
* ``GET  /v1/scenarios``        — the registered catalog.
* ``GET  /v1/healthz``          — liveness, worker/job counts, store root.

The store root is resolved **once** at construction and pinned —
passed explicitly to every worker — so a mid-run ``$REPRO_CACHE_DIR``
change cannot split the cache (the documented hazard of
:func:`~repro.runner.store.default_cache_dir` in a long-lived
process).  Specs normalise through the same registries as the CLI
before content-hashing, so alias spellings share cache cells, and
results served over HTTP are byte-identical to ``repro run``'s.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.runner.registry import get_scenario, list_scenarios
from repro.runner.results import measurement_to_dict
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ResultsStore, default_cache_dir
from repro.serve.http import (
    HTTPError,
    Request,
    read_request,
    send_json,
    send_sse_event,
    start_sse,
)
from repro.serve.jobs import TERMINAL, JobManager

__all__ = ["ReproServer", "ServerThread"]

_SPEC_ERRORS = (ConfigurationError, KeyError, TypeError, ValueError)

#: seconds between progress reads on a job's event stream: the worker
#: reports progress through a file, so beats are polled; the terminal
#: event does not wait for a beat
PROGRESS_HEARTBEAT_S = 0.1


def _spec_from_request(payload: Any) -> ScenarioSpec:
    """A spec from a POST body: either a full ScenarioSpec dict, or
    ``{"scenario": <registered name>, <field overrides...>}``."""
    if not isinstance(payload, dict):
        raise HTTPError(400, "expected a JSON object")
    try:
        if "scenario" in payload:
            overrides = {k: v for k, v in payload.items() if k != "scenario"}
            spec = get_scenario(str(payload["scenario"]))
            return spec.replace(**overrides) if overrides else spec
        data = dict(payload)
        data.setdefault("name", "serve")
        return ScenarioSpec.from_dict(data)
    except _SPEC_ERRORS as exc:
        raise HTTPError(400, f"invalid spec: {exc}") from exc


class ReproServer:
    """One serving process: asyncio front end + process worker pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        cache_dir: Union[str, Path, None] = None,
        backend: str = "locked",
        wave_reps: Optional[int] = 1,
        job_ttl: float = 3600.0,
    ) -> None:
        # the store has one implementation; the parameter stays for
        # callers that still name it
        if backend != "locked":
            raise ConfigurationError(
                f"unknown store backend {backend!r}; the results store "
                "has one implementation, 'locked'"
            )
        # pin the root once, up front; workers receive it explicitly
        self.store_root = Path(cache_dir or default_cache_dir()).resolve()
        self.host = host
        self._requested_port = port
        self.started = time.time()
        self.store = ResultsStore(self.store_root)
        self.manager = JobManager(
            self.store_root, workers, wave_reps=wave_reps, job_ttl=job_ttl
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.manager.shutdown()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is not None:
                    await self._dispatch(request, writer)
            except HTTPError as exc:
                await send_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                return  # server shutting down mid-request
            except Exception as exc:  # never take the server down
                try:
                    await send_json(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                except (ConnectionResetError, BrokenPipeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise HTTPError(404, f"no such resource: {request.path}")
        tail = parts[1:]
        if tail == ["healthz"]:
            await self._route_healthz(request, writer)
        elif tail == ["scenarios"]:
            await self._route_scenarios(request, writer)
        elif tail == ["measure"]:
            await self._route_measure(request, writer)
        elif tail == ["jobs"]:
            self._require(request, "GET")
            await send_json(writer, 200, {"jobs": self.manager.list()})
        elif len(tail) == 2 and tail[0] == "jobs":
            await self._route_job(request, writer, tail[1])
        elif len(tail) == 3 and tail[0] == "jobs" and tail[2] == "events":
            await self._route_job_events(request, writer, tail[1])
        else:
            raise HTTPError(404, f"no such resource: {request.path}")

    @staticmethod
    def _require(request: Request, *methods: str) -> None:
        if request.method not in methods:
            raise HTTPError(
                405, f"{request.method} not allowed (use {', '.join(methods)})"
            )

    # -- routes -------------------------------------------------------------

    async def _route_healthz(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        self._require(request, "GET")
        await send_json(
            writer,
            200,
            {
                "status": "ok",
                "uptime": time.time() - self.started,
                "workers": self.manager.workers,
                "jobs": self.manager.counts(),
                "store": {"root": str(self.store_root)},
            },
        )

    async def _route_scenarios(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        self._require(request, "GET")
        rows = [
            {
                "name": s.name,
                "network": s.network,
                "scheme": s.scheme,
                "traffic": s.traffic,
                "discipline": s.discipline,
                "d": s.d,
                "rho": s.rho,
                "lam": s.lam,
                "p": s.p,
                "replications": s.replications,
                "description": s.description,
            }
            for s in list_scenarios()
        ]
        await send_json(writer, 200, {"scenarios": rows})

    async def _route_measure(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        self._require(request, "POST")
        spec = _spec_from_request(request.json())
        spec_hash = spec.content_hash()
        cached = self.store.load(spec)
        if cached is not None:
            await send_json(
                writer,
                200,
                {
                    "cache": "hit",
                    "spec_hash": spec_hash,
                    "result": measurement_to_dict(cached),
                },
            )
            return
        loop = asyncio.get_running_loop()
        job, created = self.manager.submit(loop, spec)
        await send_json(
            writer,
            202,
            {
                "cache": "miss",
                "job": job.id,
                "coalesced": not created,
                "spec_hash": spec_hash,
                "status": f"/v1/jobs/{job.id}",
                "events": f"/v1/jobs/{job.id}/events",
            },
        )

    def _job_or_404(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise HTTPError(404, f"no such job: {job_id}")
        return job

    async def _route_job(
        self, request: Request, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        self._require(request, "GET", "DELETE")
        job = self._job_or_404(job_id)
        if request.method == "DELETE":
            cancellable = self.manager.cancel(job)
            await send_json(
                writer,
                200 if cancellable else 409,
                {
                    "job": job.id,
                    "cancelled": cancellable,
                    "state": job.state,
                },
            )
            return
        await send_json(writer, 200, job.snapshot())

    async def _route_job_events(
        self, request: Request, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        self._require(request, "GET")
        job = self._job_or_404(job_id)
        await start_sse(writer)
        last: Dict[str, Any] = {}
        while True:
            state = job.state
            beat = {"state": state, **job.progress()}
            if beat != last:
                await send_sse_event(writer, "progress", beat)
                last = beat
            if state in TERMINAL:
                await send_sse_event(writer, state, job.snapshot())
                return
            # wakes on the loop pass after JobManager._finish (its done
            # callback was added first), or after one heartbeat
            await asyncio.wait([job.future], timeout=PROGRESS_HEARTBEAT_S)


class ServerThread:
    """A :class:`ReproServer` on a background thread — the harness the
    tests and the serve benchmark drive requests against."""

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("port", 0)
        self.server = ReproServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.port}"

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            await self.server.start()
            self._ready.set()
            assert self.server._server is not None
            async with self.server._server:
                try:
                    await self.server._server.serve_forever()
                except asyncio.CancelledError:
                    pass

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None:
            return

        def _shutdown() -> None:
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        self._loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)
        self.server.manager.shutdown()
