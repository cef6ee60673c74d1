"""Job lifecycle for the measurement server.

A *job* is one cache-missing :class:`~repro.runner.spec.ScenarioSpec`
queued onto a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
worker routes through :func:`repro.runner.engine.measure` — the exact
seq/batch machinery the CLI uses — against a concurrent-safe
store, so a job's cache cells are byte-identical to a ``repro run`` of
the same spec.

Cross-process coordination is deliberately file-based (the worker may
be any of N pool processes, and the pool survives across jobs):

* ``<job_dir>/progress.json`` — atomically replaced after every task
  wave with ``{"completed", "cached", "total"}``; its existence is
  also the queued → running transition.
* ``<job_dir>/cancel``   — a sentinel the worker polls between waves
  (:func:`measure`'s cooperative *cancel* hook).  Cancelled jobs keep
  every persisted per-replication cell, so resubmitting the same spec
  resumes instead of recomputing.

Jobs are coalesced by content hash: a second POST of a spec whose job
is still active returns the same job instead of queueing twice.  A job
enters the table only once the pool has accepted it, so a failed
dispatch leaves nothing behind to coalesce onto.

A pool worker that dies (killed, or out of memory) breaks the whole
pool: the jobs the pool held end ``failed``, and the next submit
replaces the pool and dispatches to the fresh one.

Terminal jobs are retained for ``job_ttl`` seconds after they finish
(default one hour) so clients can fetch results, then evicted — table
entry and job directory both — by a lazy sweep on every table access.
Active jobs are never evicted.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runner.backends import make_store
from repro.runner.engine import MeasurementCancelled, measure
from repro.runner.results import measurement_to_dict
from repro.runner.spec import ScenarioSpec

__all__ = ["Job", "JobManager", "execute_job"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)


def _write_atomic_json(path: str, payload: Dict[str, Any]) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def execute_job(
    job_dir: str,
    spec_data: Dict[str, Any],
    store_root: str,
    backend: str,
    wave_reps: Optional[int],
) -> Dict[str, Any]:
    """Run one job in a pool worker; returns its terminal record.

    The store root arrives **explicitly pinned** by the server — never
    re-derived from the environment here — so a mid-run ``$REPRO_CACHE_DIR``
    change cannot split the cache between server and workers.
    Exceptions are folded into the returned record (never raised) so a
    failing spec cannot poison the executor.
    """
    spec = ScenarioSpec.from_dict(spec_data)
    store = make_store(store_root, backend)
    cancel_path = os.path.join(job_dir, "cancel")
    progress_path = os.path.join(job_dir, "progress.json")

    def _cancelled() -> bool:
        return os.path.exists(cancel_path)

    def _progress(ev) -> None:
        _write_atomic_json(
            progress_path,
            {"completed": ev.completed, "cached": ev.cached, "total": ev.total},
        )

    try:
        m = measure(
            spec,
            store=store,
            cancel=_cancelled,
            progress=_progress,
            wave_reps=wave_reps,
        )
        return {"state": DONE, "result": measurement_to_dict(m)}
    except MeasurementCancelled as exc:
        return {"state": CANCELLED, "completed": exc.completed}
    except Exception as exc:  # surfaced to the client, not the pool
        return {"state": FAILED, "error": f"{type(exc).__name__}: {exc}"}


@dataclass
class Job:
    """One queued/running/terminal measurement."""

    id: str
    spec: ScenarioSpec
    spec_hash: str
    job_dir: Path
    created: float
    #: the pool's future for :func:`execute_job`
    future: Any
    terminal: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False
    finished: Optional[float] = None
    #: progress as last read from the worker's progress file
    last_progress: Dict[str, int] = field(default_factory=dict)

    @property
    def state(self) -> str:
        if self.terminal is not None:
            return self.terminal["state"]
        if self.cancel_requested:
            return RUNNING  # until the cancelled future's done callback
        if (self.job_dir / "progress.json").exists():
            return RUNNING
        return QUEUED

    def progress(self) -> Dict[str, int]:
        """The worker's latest progress beat (sticky: keeps the last
        seen values if the file is momentarily torn or gone)."""
        try:
            payload = json.loads((self.job_dir / "progress.json").read_text())
            self.last_progress = {
                "completed": int(payload["completed"]),
                "cached": int(payload["cached"]),
                "total": int(payload["total"]),
            }
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
            pass
        out = dict(
            self.last_progress
            or {"completed": 0, "cached": 0, "total": self.spec.replications}
        )
        out["remaining"] = out["total"] - out["completed"] - out["cached"]
        return out

    def snapshot(self, with_result: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "spec_hash": self.spec_hash,
            "scenario": self.spec.name,
            "created": self.created,
            "progress": self.progress(),
        }
        if self.finished is not None:
            out["finished"] = self.finished
        if self.terminal is not None:
            if self.terminal["state"] == FAILED:
                out["error"] = self.terminal["error"]
            if with_result and self.terminal["state"] == DONE:
                out["result"] = self.terminal["result"]
        return out


class JobManager:
    """Owns the worker pool and the job table.

    All methods run on the event-loop thread; only the pool workers
    and the file-based progress/cancel protocol cross processes.
    :meth:`_finish` is every job's completion hook: it runs as the
    done callback of the job's future, first in line, so anything
    awaiting that future sees the job terminal.  A pool broken by a
    dead worker is replaced on the next :meth:`submit`.
    """

    def __init__(
        self,
        store_root: Path,
        backend: str,
        workers: int,
        wave_reps: Optional[int] = 1,
        state_dir: Optional[Path] = None,
        job_ttl: float = 3600.0,
    ) -> None:
        if job_ttl <= 0:
            raise ValueError(f"job_ttl must be > 0 seconds, got {job_ttl!r}")
        self.store_root = Path(store_root)
        self.backend = backend
        self.wave_reps = wave_reps
        self.job_ttl = float(job_ttl)
        self.workers = max(1, int(workers))
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        self._owns_state_dir = state_dir is None
        self.state_dir = Path(
            state_dir
            if state_dir is not None
            else tempfile.mkdtemp(prefix="repro-serve-")
        )
        self.jobs: Dict[str, Job] = {}
        #: content hash -> active (non-terminal) job id, for coalescing
        self._active: Dict[str, str] = {}

    def _evict_expired(self, now: Optional[float] = None) -> int:
        """Drop terminal jobs whose retention TTL has lapsed (lazy
        sweep, run on every table access).  Evicts the table entry and
        the job directory; active jobs are untouched.  Returns how
        many jobs were evicted."""
        now = time.time() if now is None else now
        expired = [
            job
            for job in self.jobs.values()
            if job.terminal is not None
            and job.finished is not None
            and job.finished + self.job_ttl < now
        ]
        for job in expired:
            del self.jobs[job.id]
            if self._active.get(job.spec_hash) == job.id:
                del self._active[job.spec_hash]
            shutil.rmtree(job.job_dir, ignore_errors=True)
        return len(expired)

    def submit(self, loop, spec: ScenarioSpec) -> tuple[Job, bool]:
        """Queue *spec*; returns ``(job, created)`` where ``created``
        is false when an active job for the same content hash was
        coalesced onto instead."""
        self._evict_expired()
        spec_hash = spec.content_hash()
        active_id = self._active.get(spec_hash)
        if active_id is not None:
            job = self.jobs[active_id]
            if job.state not in TERMINAL and not job.cancel_requested:
                return job, False
        job_id = secrets.token_hex(6)
        job_dir = self.state_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        created = time.time()
        args = (
            str(job_dir),
            spec.to_dict(),
            str(self.store_root),
            self.backend,
            self.wave_reps,
        )
        try:
            future = loop.run_in_executor(self.executor, execute_job, *args)
        except BrokenProcessPool:
            # a worker died; the jobs the old pool held fail in _finish
            self.executor.shutdown(wait=False)
            self.executor = ProcessPoolExecutor(max_workers=self.workers)
            future = loop.run_in_executor(self.executor, execute_job, *args)
        job = Job(
            id=job_id,
            spec=spec,
            spec_hash=spec_hash,
            job_dir=job_dir,
            created=created,
            future=future,
        )
        self.jobs[job_id] = job
        self._active[spec_hash] = job_id
        future.add_done_callback(lambda fut: self._finish(job, fut))
        return job, True

    def _finish(self, job: Job, fut) -> None:
        job.finished = time.time()
        if fut.cancelled():
            job.terminal = {"state": CANCELLED, "completed": 0}
        else:
            exc = fut.exception()
            if exc is not None:  # e.g. a broken pool; job-level errors
                # are already folded into the record by execute_job
                job.terminal = {
                    "state": FAILED,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            else:
                job.terminal = fut.result()
        if self._active.get(job.spec_hash) == job.id:
            del self._active[job.spec_hash]

    def get(self, job_id: str) -> Optional[Job]:
        self._evict_expired()
        return self.jobs.get(job_id)

    def cancel(self, job: Job) -> bool:
        """Request cancellation; returns whether the job was still
        cancellable.  A queued job's future is cancelled outright when
        the pool has not picked it up; a running one gets the sentinel
        and stops at the next wave boundary."""
        if job.state in TERMINAL:
            return False
        job.cancel_requested = True
        (job.job_dir / "cancel").touch()
        if self._active.get(job.spec_hash) == job.id:
            del self._active[job.spec_hash]
        job.future.cancel()
        return True

    def counts(self) -> Dict[str, int]:
        self._evict_expired()
        out = {s: 0 for s in (QUEUED, RUNNING, *TERMINAL)}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    def list(self) -> List[Dict[str, Any]]:
        self._evict_expired()
        return [
            job.snapshot(with_result=False)
            for job in sorted(self.jobs.values(), key=lambda j: j.created)
        ]

    def shutdown(self) -> None:
        for job in self.jobs.values():
            if job.state not in TERMINAL:
                self.cancel(job)
        self.executor.shutdown(wait=False, cancel_futures=True)
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)
