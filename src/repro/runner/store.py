"""Content-addressed JSON results store.

Every measured spec is persisted as ``<content-hash>.json`` holding
both the spec (for provenance/inspection) and the pooled measurement.
Because the key is :meth:`ScenarioSpec.content_hash` — a digest of
every field that affects the numbers — repeated benchmark runs skip
already-computed cells, and renaming a scenario does not invalidate
its results.

Next to the pooled cells lives a **per-replication** cache under
``replications/``: cells keyed by ``(replication_hash, k)``, where
:meth:`ScenarioSpec.replication_hash` is additionally independent of
the replication count.  Replication *k*'s seed depends only on
``(base_seed, seed_policy, k)`` under either seed policy, so raising
``replications`` on an existing spec reuses every already-computed
replication and simulates only the new ones.

The default root is ``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the
current directory.  One store serves every writer — ``repro run``,
``repro cache``, the ``repro serve`` server and its pool workers — so
they can share a root:

* every cell write holds an exclusive ``fcntl.flock`` on
  ``<root>/.lock`` while it writes a temp file named after its cell
  (``<cell>.<random>.tmp``) and renames it over the cell, so a reader
  sees the old cell or the new one, never a torn one;
* ``clear`` and ``prune`` hold the same lock, so they never race a
  write, and they unlink the temp files a killed writer left behind
  (with the lock held, no live writer has one open);
* reads take no lock.

:func:`default_cache_dir` re-reads the environment on **every**
``ResultsStore()`` construction — deliberate for short-lived CLI
invocations, but a long-lived process (the ``repro serve`` server, a
worker pool) must resolve the root **once** at startup and pass it
explicitly to every store it constructs, or a mid-run environment
change silently splits the cache across two roots.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.runner.results import (
    DelayMeasurement,
    _decode_float,
    _encode_float,
    measurement_from_dict,
    measurement_to_dict,
)
from repro.runner.spec import ScenarioSpec
from repro.sim.run_spec import ReplicationOutput

__all__ = [
    "ResultsStore",
    "StoreStats",
    "default_cache_dir",
    "parse_duration",
    "parse_size",
]

#: 1024-based size suffixes accepted by ``repro cache prune --max-bytes``.
_SIZE_UNITS = {"": 1, "b": 1, "kb": 1024, "mb": 1024**2, "gb": 1024**3}
#: duration suffixes accepted by ``repro cache prune --older-than``.
_DURATION_UNITS = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def parse_duration(text: Union[str, float, int]) -> float:
    """``"30d"``/``"12h"``/``"45m"``/``"90"`` -> seconds."""
    if isinstance(text, (int, float)):
        return float(text)
    m = re.fullmatch(r"\s*([0-9.]+)\s*([a-z]*)\s*", text.lower())
    if not m or m.group(2) not in _DURATION_UNITS:
        raise ValueError(
            f"unparseable duration {text!r} (use e.g. 90, 45m, 12h, 30d)"
        )
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


def parse_size(text: Union[str, float, int]) -> int:
    """``"100mb"``/``"2gb"``/``"4096"`` -> bytes (1024-based units)."""
    if isinstance(text, (int, float)):
        return int(text)
    m = re.fullmatch(r"\s*([0-9.]+)\s*([a-z]*)\s*", text.lower())
    if not m or m.group(2) not in _SIZE_UNITS:
        raise ValueError(
            f"unparseable size {text!r} (use e.g. 4096, 512kb, 100mb, 2gb)"
        )
    return int(float(m.group(1)) * _SIZE_UNITS[m.group(2)])

_ENV_VAR = "REPRO_CACHE_DIR"

#: what the store's own cells look like — content-hash-named JSON.
#: Anything else in the directory is foreign and never touched by
#: :meth:`ResultsStore.clear`.
_POOLED_CELL = re.compile(r"^[0-9a-f]{20}\.json$")
_REPLICATION_CELL = re.compile(r"^[0-9a-f]{20}\.r\d{4,}\.json$")
#: a cell write's temp file (``mkstemp`` names it after its cell); one
#: found while the lock is held was left by a killed writer
_ORPHAN = re.compile(r"^[0-9a-f]{20}(\.r\d{4,})?\.json\.[a-z0-9_]+\.tmp$")


def default_cache_dir() -> Path:
    return Path(os.environ.get(_ENV_VAR, ".repro-cache"))


@dataclass(frozen=True)
class StoreStats:
    """Cell counts and on-disk size of a results store.

    Doubles as the report of a maintenance pass (``clear``/``prune``),
    where the fields count what was *removed*.  ``corrupt`` counts
    unparseable cells — silent misses from torn writes or hand edits —
    and is only populated by ``stats(verify=True)``.
    """

    pooled: int
    replications: int
    total_bytes: int
    corrupt: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "pooled": self.pooled,
            "replications": self.replications,
            "total_bytes": self.total_bytes,
            "corrupt": self.corrupt,
        }


class ResultsStore:
    """A directory of content-addressed measurement cells."""

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the root's exclusive lock (``<root>/.lock``, created
        with the root if missing; ``clear`` never deletes it)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def path_for(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{spec.content_hash()}.json"

    def contains(self, spec: ScenarioSpec) -> bool:
        return self.path_for(spec).is_file()

    def load(self, spec: ScenarioSpec) -> Optional[DelayMeasurement]:
        """The cached measurement for *spec*, or ``None`` on a miss.

        A corrupt cell (torn write from a crashed run, hand edit) is
        treated as a miss rather than an error.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            return measurement_from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def save(self, spec: ScenarioSpec, measurement: DelayMeasurement) -> Path:
        payload = {
            "spec": spec.to_dict(),
            "result": measurement_to_dict(measurement),
        }
        return self._write_atomic(self.path_for(spec), payload)

    def _write_atomic(self, path: Path, payload: Dict[str, Any]) -> Path:
        with self._locked():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return path

    # -- per-replication cells ----------------------------------------------

    def replication_path_for(self, spec: ScenarioSpec, rep: int) -> Path:
        return (
            self.root
            / "replications"
            / f"{spec.replication_hash()}.r{rep:04d}.json"
        )

    def load_replication(
        self, spec: ScenarioSpec, rep: int
    ) -> Optional[ReplicationOutput]:
        """Replication *rep*'s cached output, or ``None`` on a miss.

        The per-packet record is not persisted (it can be regenerated
        from the replication's seed), so cached outputs carry
        ``record=None`` — the same shape the pooled engine consumes.
        """
        path = self.replication_path_for(spec, rep)
        try:
            payload = json.loads(path.read_text())
            return ReplicationOutput(
                mean_delay=_decode_float(payload["mean_delay"]),
                num_packets=int(payload["num_packets"]),
                metrics=tuple(
                    (str(k), _decode_float(v)) for k, v in payload["metrics"]
                ),
            )
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def save_replication(
        self, spec: ScenarioSpec, rep: int, out: ReplicationOutput
    ) -> Path:
        payload = {
            "spec": spec.to_dict(),
            "replication": rep,
            "mean_delay": _encode_float(out.mean_delay),
            "num_packets": out.num_packets,
            "metrics": [[k, _encode_float(v)] for k, v in out.metrics],
        }
        return self._write_atomic(self.replication_path_for(spec, rep), payload)

    def __len__(self) -> int:
        """Number of pooled cells the store owns (foreign JSON a user
        parked in the directory is not counted — one definition of
        "cell", shared with :meth:`stats` and :meth:`clear`)."""
        return sum(1 for _ in self._pooled_cells())

    # -- maintenance (the `repro cache` subcommand) ---------------------------

    def _pooled_cells(self):
        if not self.root.is_dir():
            return
        for path in sorted(self.root.iterdir()):
            if path.is_file() and _POOLED_CELL.match(path.name):
                yield path

    def _replication_cells(self):
        reps = self.root / "replications"
        if not reps.is_dir():
            return
        for path in sorted(reps.iterdir()):
            if path.is_file() and _REPLICATION_CELL.match(path.name):
                yield path

    @staticmethod
    def _survey(paths: Iterable[Path]) -> List[Tuple[Path, float, int]]:
        """``(path, mtime, size)`` for each cell that still exists.

        Another process may delete any cell between ``iterdir()`` and
        ``stat()`` (a concurrent ``clear``/``prune``, a parallel
        sweep's eviction) — a vanished file is simply skipped, never
        an error.
        """
        out = []
        for path in paths:
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            out.append((path, st.st_mtime, st.st_size))
        return out

    @staticmethod
    def _unlink_surveyed(cells: Iterable[Tuple[Path, float, int]]) -> Tuple[int, int]:
        """Remove surveyed cells, tolerating concurrent deletion;
        returns ``(count_removed, bytes_freed)``."""
        count = freed = 0
        for path, _, size in cells:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            count += 1
            freed += size
        return count, freed

    def _is_corrupt(self, path: Path) -> bool:
        """Unparseable (or vanished-mid-read) cells read as corrupt is
        wrong for the vanished case — a file deleted under us is just
        gone, not rot — so missing files report healthy."""
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return False
        except (json.JSONDecodeError, UnicodeDecodeError):
            return True
        return not isinstance(payload, dict)

    def stats(self, verify: bool = False) -> StoreStats:
        """Cell counts and total size — only the store's own cells
        (content-hash-named JSON) are counted, never foreign files.

        ``verify=True`` additionally parses every cell and counts the
        corrupt ones (torn writes, hand edits): each is a silent cache
        miss the operator would otherwise never see.
        """
        pooled = self._survey(self._pooled_cells())
        reps = self._survey(self._replication_cells())
        total = sum(size for _, _, size in pooled + reps)
        corrupt = (
            sum(1 for p, _, _ in pooled + reps if self._is_corrupt(p))
            if verify
            else 0
        )
        return StoreStats(len(pooled), len(reps), total, corrupt)

    def clear(self) -> StoreStats:
        """Delete every cell the store owns; returns what was removed.

        Deliberately surgical: only files matching the store's own
        naming scheme go (``<20-hex>.json`` at the root,
        ``<20-hex>.rNNNN.json`` under ``replications/``, and the temp
        files of killed writes).  Foreign files a user parked in the
        directory — notes, plots, a stray ``.gitignore`` — are left
        untouched, as are the ``.lock`` file and the directory itself
        (unless ``replications/`` ends up empty, which is then removed
        as it is store-owned).  Cells deleted concurrently by another
        process are skipped, not errors.  A root that does not exist is
        left uncreated.
        """
        if not self.root.is_dir():
            return StoreStats(0, 0, 0)
        with self._locked():
            pooled, freed_p = self._unlink_surveyed(
                self._survey(self._pooled_cells())
            )
            replications, freed_r = self._unlink_surveyed(
                self._survey(self._replication_cells())
            )
            self._sweep_orphans()
        return StoreStats(pooled, replications, freed_p + freed_r)

    def _sweep_orphans(self) -> None:
        """Unlink the temp files of killed writes, then ``replications/``
        if that leaves it empty.  Runs with the lock held, so no live
        writer has a temp file open or is about to use the directory."""
        reps_dir = self.root / "replications"
        for folder in (self.root, reps_dir):
            if folder.is_dir():
                for path in folder.iterdir():
                    if _ORPHAN.match(path.name):
                        path.unlink(missing_ok=True)
        try:
            reps_dir.rmdir()
        except OSError:
            pass  # missing, or it still holds cells or foreign files

    def prune(
        self,
        older_than: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> StoreStats:
        """TTL/LRU eviction; returns what was removed.

        ``older_than`` (seconds) drops every cell whose mtime predates
        ``now - older_than``.  ``max_bytes`` then evicts
        least-recently-written cells (LRU by mtime, pooled and
        per-replication together) until the store fits the budget.
        Either knob may be ``None``; with both ``None`` no cell goes.
        Orphaned temp files, vanished files and a missing root are
        handled exactly as in :meth:`clear`.
        """
        if not self.root.is_dir():
            return StoreStats(0, 0, 0)
        now = time.time() if now is None else now
        with self._locked():
            pooled = self._survey(self._pooled_cells())
            reps = self._survey(self._replication_cells())
            doomed_p: List[Tuple[Path, float, int]] = []
            doomed_r: List[Tuple[Path, float, int]] = []

            def _doom(cell: Tuple[Path, float, int]) -> None:
                is_rep = _REPLICATION_CELL.match(cell[0].name) is not None
                (doomed_r if is_rep else doomed_p).append(cell)

            survivors = pooled + reps
            if older_than is not None:
                cutoff = now - older_than
                for cell in survivors:
                    if cell[1] < cutoff:
                        _doom(cell)
                survivors = [c for c in survivors if c[1] >= cutoff]
            if max_bytes is not None:
                survivors.sort(key=lambda c: c[1])  # oldest mtime first
                total = sum(size for _, _, size in survivors)
                while survivors and total > max_bytes:
                    cell = survivors.pop(0)
                    total -= cell[2]
                    _doom(cell)
            removed_p, freed_p = self._unlink_surveyed(doomed_p)
            removed_r, freed_r = self._unlink_surveyed(doomed_r)
            self._sweep_orphans()
        return StoreStats(removed_p, removed_r, freed_p + freed_r)
