"""The measurement server, started by the ``serve-zipf`` workload.

Runs :class:`repro.serve.app.ReproServer` (locked store backend) in
this process and writes ``{"port", "pid"}`` to ``--ready`` once it
listens.  SIGTERM stops it; on the way out it writes a summary to
``--summary``: its peak resident memory and, with ``--trace``, the
front-end layers' self times and counters plus job timestamps.

With ``--trace`` the front-end wrappers are installed at start but
record only after SIGUSR1, so set-up is never traced.  The pool workers
are never traced; the only change there is that each job's record
carries the epochs its worker started and finished it.

Usage::

    python perfbench/server.py --cache-dir DIR --workers N \\
        --ready FILE --summary FILE [--trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from common import peak_rss_mb  # noqa: E402


#: the program's ``execute_job``, set before it is replaced
_execute_job = None


def timed_execute_job(*args):
    """``execute_job`` plus the epochs the worker started and ended it."""
    started = time.time()
    record = _execute_job(*args)
    record["worker_started"] = started
    record["worker_ended"] = time.time()
    return record


def _watch_jobs(rec: tracing.Recorder, jobs: list):
    """Wrap ``JobManager._finish`` to keep ``(created, started, ended)``
    of every job that finishes while recording."""
    from repro.serve.jobs import JobManager

    original = JobManager._finish

    def _finish(self, job, fut):
        original(self, job, fut)
        terminal = job.terminal or {}
        if rec.enabled and "worker_started" in terminal:
            jobs.append(
                (job.created, terminal["worker_started"], terminal["worker_ended"])
            )

    JobManager._finish = _finish


async def _serve(args, rec, jobs) -> dict:
    from repro.serve.app import ReproServer

    server = ReproServer(
        host="127.0.0.1", port=0, workers=args.workers,
        cache_dir=args.cache_dir, backend="locked",
    )
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if rec is not None:
        loop.add_signal_handler(signal.SIGUSR1, rec.start_recording)
    tmp = args.ready + ".tmp"
    Path(tmp).write_text(json.dumps({"port": server.port, "pid": os.getpid()}))
    os.replace(tmp, args.ready)
    await stop.wait()
    summary = {}
    if rec is not None:
        rec.stop_recording()
        summary["layers"] = tracing.layer_metrics(rec)
        summary["jobs"] = jobs
        rec.write(args.trace)
    await server.stop()
    summary["peak_rss_mb"] = peak_rss_mb()
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--trace", default=None, help="spans file")
    args = parser.parse_args()
    global _execute_job
    rec = jobs = None
    if args.trace:
        import repro.serve.jobs

        rec, jobs = tracing.Recorder(), []
        patches = tracing.install(rec, tracing.FRONT_END_LAYERS)
        _execute_job = repro.serve.jobs.execute_job
        repro.serve.jobs.execute_job = timed_execute_job
        _watch_jobs(rec, jobs)
    summary = asyncio.run(_serve(args, rec, jobs))
    if rec is not None:
        summary["unwrapped"] = patches.missing
    Path(args.summary).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
