"""The results store: its root lock, crash safety, concurrency safety,
TTL/LRU pruning, corrupt-cell accounting, and the TOCTOU tolerance of
the maintenance passes.

The contracts under test:

* ``stats``/``clear``/``prune`` never crash when another process
  deletes a cell mid-iteration (the ``FileNotFoundError`` TOCTOU);
* every cell write holds the root's lock (``<root>/.lock``), which
  ``clear`` spares, and ``clear``/``prune`` leave a missing root
  uncreated;
* a writer killed mid-cell leaves no torn cell, only a temp file named
  after its cell, which ``clear`` removes;
* two processes measuring the same spec simultaneously leave exactly
  one valid pooled cell and one valid cell per replication — no torn
  or duplicated writes;
* ``prune`` evicts by TTL then LRU-by-mtime, reporting what it
  removed in the same shape as ``stats``.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import signal

import pytest

import repro.runner.store as store_module
from repro.runner import ResultsStore, ScenarioSpec, measure
from repro.runner.backends import make_store
from repro.runner.store import StoreStats, parse_duration, parse_size

SPEC = dict(name="backend-t", d=3, rho=0.5, horizon=60.0, replications=3)


def _cell(root, name: str, text: str = "{}"):
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{name}.json"
    path.write_text(text)
    return path


class TestParseHelpers:
    def test_durations(self):
        assert parse_duration("90") == 90.0
        assert parse_duration("45m") == 2700.0
        assert parse_duration("12h") == 43200.0
        assert parse_duration("30d") == 30 * 86400.0
        assert parse_duration(7.5) == 7.5

    def test_sizes(self):
        assert parse_size("4096") == 4096
        assert parse_size("512kb") == 512 * 1024
        assert parse_size("100mb") == 100 * 1024**2
        assert parse_size(10) == 10

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_duration("soon")
        with pytest.raises(ValueError):
            parse_size("plenty")


class TestToctouTolerance:
    """A cell deleted between ``iterdir()`` and ``stat()``/``unlink()``
    is a vanished file, never an error."""

    def test_stats_with_cell_deleted_mid_iteration(self, tmp_path):
        store = ResultsStore(tmp_path)
        _cell(tmp_path, "a" * 20)
        doomed = _cell(tmp_path, "b" * 20)
        original = store._pooled_cells

        def vanishing():
            for path in original():
                # a concurrent process clears the other cell mid-walk
                doomed.unlink(missing_ok=True)
                yield path

        store._pooled_cells = vanishing
        stats = store.stats()  # must not raise FileNotFoundError
        assert stats.pooled == 1

    def test_clear_with_cell_deleted_mid_iteration(self, tmp_path):
        store = ResultsStore(tmp_path)
        _cell(tmp_path, "a" * 20)
        doomed = _cell(tmp_path, "b" * 20)
        original = store._pooled_cells

        def vanishing():
            for path in original():
                doomed.unlink(missing_ok=True)
                yield path

        store._pooled_cells = vanishing
        removed = store.clear()
        assert removed.pooled == 1
        assert not any(tmp_path.glob("*.json"))

    def test_unlink_surveyed_tolerates_ghosts(self, tmp_path):
        ghost = (tmp_path / ("f" * 20 + ".json"), 0.0, 64)
        count, freed = ResultsStore._unlink_surveyed([ghost])
        assert (count, freed) == (0, 0)


class TestCorruptCells:
    def test_corrupt_counted_only_under_verify(self, tmp_path):
        store = ResultsStore(tmp_path)
        measure(ScenarioSpec(**SPEC), store=store)
        bad = _cell(tmp_path, "0" * 20, "{ torn write")
        assert store.stats().corrupt == 0
        verified = store.stats(verify=True)
        assert verified.corrupt == 1
        assert verified.pooled == 2  # corrupt cells still count as cells
        bad.write_text('"not a cell object"')
        assert store.stats(verify=True).corrupt == 1

    def test_cache_info_json_reports_corrupt(self, tmp_path, capsys):
        from repro.__main__ import main

        store = ResultsStore(tmp_path)
        measure(ScenarioSpec(**SPEC), store=store)
        _cell(tmp_path, "0" * 20, "{ torn write")
        assert main(["cache", "info", "--json", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == 1
        assert payload["pooled"] == 2
        assert payload["replications"] == SPEC["replications"]
        assert payload["root"] == str(tmp_path)


class TestPrune:
    def test_ttl_drops_only_old_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        old = _cell(tmp_path, "a" * 20)
        young = _cell(tmp_path, "b" * 20)
        os.utime(old, (1_000, 1_000))
        os.utime(young, (9_000, 9_000))
        removed = store.prune(older_than=5_000, now=10_000)
        assert (removed.pooled, removed.replications) == (1, 0)
        assert not old.exists() and young.exists()

    def test_lru_evicts_oldest_until_budget(self, tmp_path):
        store = ResultsStore(tmp_path)
        paths = []
        for i, name in enumerate(["a", "b", "c"]):
            p = _cell(tmp_path, name * 20, json.dumps({"pad": "x" * 100}))
            os.utime(p, (1_000 * (i + 1),) * 2)
            paths.append(p)
        size = paths[0].stat().st_size
        removed = store.prune(max_bytes=2 * size, now=10_000)
        assert removed.pooled == 1
        assert not paths[0].exists()  # oldest mtime went first
        assert paths[1].exists() and paths[2].exists()

    def test_prune_covers_replication_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = ScenarioSpec(**SPEC)
        measure(spec, store=store)
        rep = store.replication_path_for(spec, 0)
        os.utime(rep, (1_000, 1_000))
        removed = store.prune(older_than=5_000, now=10_000)
        assert (removed.pooled, removed.replications) == (0, 1)
        assert store.load_replication(spec, 0) is None
        assert store.load_replication(spec, 1) is not None

    def test_noop_without_knobs(self, tmp_path):
        store = ResultsStore(tmp_path)
        _cell(tmp_path, "a" * 20)
        removed = store.prune()
        assert (removed.pooled, removed.replications) == (0, 0)
        assert store.stats().pooled == 1

    def test_cache_prune_cli_reports_json(self, tmp_path, capsys):
        from repro.__main__ import main

        store = ResultsStore(tmp_path)
        measure(ScenarioSpec(**SPEC), store=store)
        for path in store._pooled_cells():
            os.utime(path, (1_000, 1_000))
        code = main(
            ["cache", "prune", "--older-than", "30d", "--json",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"]["pooled"] == 1
        assert payload["remaining"]["pooled"] == 0
        assert payload["remaining"]["replications"] == SPEC["replications"]

    def test_cache_prune_cli_requires_a_knob(self, tmp_path):
        from repro.__main__ import main

        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2


class TestLockedBackend:
    """The root's lock, which every writer of the one store takes."""

    def test_every_write_holds_the_root_lock(self, tmp_path, monkeypatch):
        real_dump = json.dump
        writes = []

        def probing_dump(payload, fh, **kwargs):
            fd = os.open(tmp_path / ".lock", os.O_RDWR)
            try:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
            writes.append(payload)
            real_dump(payload, fh, **kwargs)

        monkeypatch.setattr(store_module.json, "dump", probing_dump)
        measure(ScenarioSpec(**SPEC), store=ResultsStore(tmp_path))
        assert len(writes) == 1 + SPEC["replications"]

    def test_clear_spares_the_lock_file(self, tmp_path):
        store = ResultsStore(tmp_path)
        measure(ScenarioSpec(**SPEC), store=store)
        assert (tmp_path / ".lock").exists()
        foreign = tmp_path / "notes.tmp"
        foreign.write_text("not the store's")
        store.clear()
        assert (tmp_path / ".lock").exists()
        assert foreign.read_text() == "not the store's"
        assert store.stats().pooled == 0

    def test_maintenance_leaves_a_missing_root_alone(self, tmp_path):
        store = ResultsStore(tmp_path / "never-created")
        assert store.clear() == StoreStats(0, 0, 0)
        assert store.prune(older_than=1.0, max_bytes=0) == StoreStats(0, 0, 0)
        assert not store.root.exists()


def _die_mid_cell(root: str) -> None:
    """Measure into *root*, dying by SIGKILL after the first cell write
    has put 40 bytes into its temp file."""

    def torn_dump(payload, fh, **kwargs):
        fh.write(json.dumps(payload, **kwargs)[:40])
        fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    store_module.json.dump = torn_dump
    measure(ScenarioSpec(**SPEC), store=ResultsStore(root))


class TestCrashSafety:
    def test_writer_killed_mid_cell(self, tmp_path):
        root = tmp_path / "shared"
        proc = multiprocessing.Process(target=_die_mid_cell, args=(str(root),))
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == -signal.SIGKILL
        store = ResultsStore(root)
        spec = ScenarioSpec(**SPEC)
        (orphan,) = root.rglob("*.tmp")
        assert orphan.parent.name == "replications"
        assert orphan.name.startswith(spec.replication_hash() + ".r")
        assert all(
            store.load_replication(spec, k) is None
            for k in range(spec.replications)
        )
        assert store.stats(verify=True).corrupt == 0
        # the dead writer's lock went with it: measuring again recomputes
        fresh = measure(spec, store=ResultsStore(tmp_path / "fresh"))
        assert measure(spec, store=store) == fresh
        store.clear()
        assert not any(root.rglob("*.tmp"))
        assert not (root / "replications").exists()


class TestMakeStore:
    """``make_store`` stays for the benchmark harness, which builds its
    in-process store through it; every root selects the one store."""

    def test_backend_selection(self, tmp_path):
        store = make_store(tmp_path)
        assert type(store) is ResultsStore
        assert store.root == tmp_path


def _measure_into(root: str) -> None:
    measure(ScenarioSpec(**SPEC), store=ResultsStore(root), wave_reps=1)


class TestConcurrentAccess:
    def test_two_processes_one_valid_cell(self, tmp_path):
        """Two processes measuring the same spec simultaneously must
        leave exactly one valid pooled cell and one valid cell per
        replication — no torn or duplicated writes."""
        root = str(tmp_path / "shared")
        procs = [
            multiprocessing.Process(target=_measure_into, args=(root,))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        store = ResultsStore(root)
        spec = ScenarioSpec(**SPEC)
        stats = store.stats(verify=True)
        assert stats.pooled == 1
        assert stats.replications == spec.replications
        assert stats.corrupt == 0
        reference = measure(spec, store=ResultsStore(tmp_path / "ref"))
        assert store.load(spec) == reference
        for k in range(spec.replications):
            assert store.load_replication(spec, k) is not None
