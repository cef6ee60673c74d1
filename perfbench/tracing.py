"""Layer-by-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It wraps the public functions at
each layer boundary by module-attribute replacement (every binding of
the function in a loaded ``repro`` module is swapped, so ``from x
import f`` copies are covered too) and restores the originals
afterwards.

A span is ``(name, start, end, parent)``.  Synchronous calls record one
span per call.  Coroutines record one span per *resume step* -- the
interval the coroutine actually runs between two suspensions -- so on
an event-loop thread spans nest strictly in time even while many
requests interleave, and layer self times never overlap.  Self time is
span time minus the time of the child spans it contains; the self
times of every span add up to the time covered by the root spans, and
the remainder of the traced wall time is reported as ``untraced``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Hook = Callable[["Recorder", tuple, dict, Any, bool], None]


class Recorder:
    """Spans and counters of one process, kept in memory.

    Only the thread (and process) that created the recorder records;
    calls from other threads, or from forked pool workers, pass
    straight through the wrappers.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._open_names: Dict[int, int] = {}
        self.enabled = False
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.wall = 0.0
        self._since: Optional[float] = None

    # -- on/off ---------------------------------------------------------

    def start_recording(self) -> None:
        if not self.enabled:
            self.enabled = True
            self._since = perf_counter()

    def stop_recording(self) -> None:
        if self.enabled and self._since is not None:
            self.wall += perf_counter() - self._since
        self.enabled = False
        self._since = None

    def active(self) -> bool:
        return (
            self.enabled
            and threading.get_ident() == self.thread
            and os.getpid() == self.pid
        )

    # -- spans and counters --------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_names[name_id] = self._open_names.get(name_id, 0) + 1
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open_names[self.name[idx]] -= 1

    def inside(self, name_id: int) -> bool:
        """Whether a span of this name is open (outermost-call tests)."""
        return self._open_names.get(name_id, 0) > 0

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- results --------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-name self time and the time covered by root spans."""
        return self_times(
            self.names,
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def write(self, path: str) -> None:
        """Every span, as parallel lists, to a JSON file."""
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": self.counts,
            "wall_s": self.wall,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(
    names: Sequence[str],
    name: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
) -> Tuple[Dict[str, float], float]:
    """Self time per span name and the total time of the root spans.

    A span's self time is its duration minus the durations of its
    direct children; summed over all spans this telescopes to the
    duration of the roots (``parent == -1``).
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0]
    )
    own = dur - child
    per_name = np.bincount(
        np.asarray(name, dtype=np.int64), weights=own, minlength=len(names)
    )
    roots = float(dur[~has_parent].sum())
    return {n: float(per_name[i]) for i, n in enumerate(names)}, roots


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class _Stepped:
    """Drive a coroutine, recording one span per resume step."""

    __slots__ = ("coro", "rec", "name_id")

    def __init__(self, coro: Any, rec: Recorder, name_id: int) -> None:
        self.coro = coro
        self.rec = rec
        self.name_id = name_id

    def __await__(self):
        coro, rec = self.coro, self.rec
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            idx = rec.open(self.name_id)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.close(idx)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def _wrap(fn: Callable, rec: Recorder, span: Optional[str], hook: Optional[Hook]):
    """A traced stand-in for *fn*: a span named *span* (``None`` for a
    counter-only wrapper) and *hook* called with the outcome."""
    name_id = rec.name_id(span) if span is not None else -1

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            if not rec.active():
                return await fn(*args, **kwargs)
            outermost = not rec.inside(name_id)
            out = await _Stepped(fn(*args, **kwargs), rec, name_id)
            if hook is not None:
                hook(rec, args, kwargs, out, outermost)
            return out

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        outermost = name_id < 0 or not rec.inside(name_id)
        if name_id < 0:
            out = fn(*args, **kwargs)
        else:
            idx = rec.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, out, outermost)
        return out

    return traced


def _wrap_returned(fn: Callable, rec: Recorder, span: str) -> Callable:
    """For factories (a scheme's ``batch_runner``/``prepare``): the
    callable they return runs inside a span named *span*."""

    @functools.wraps(fn)
    def factory(*args, **kwargs):
        made = fn(*args, **kwargs)
        if made is None or not callable(made):
            return made
        return _wrap(made, rec, span, None)

    return factory


# ---------------------------------------------------------------------------
# the layer table
# ---------------------------------------------------------------------------


def _count(key: str, size: Callable[[tuple, dict, Any], float] = lambda a, k, o: 1,
           outermost_only: bool = True) -> Hook:
    def hook(rec, args, kwargs, out, outermost):
        if outermost or not outermost_only:
            rec.count(key, size(args, kwargs, out))

    return hook


def _hooks(*hooks: Hook) -> Hook:
    def hook(rec, args, kwargs, out, outermost):
        for h in hooks:
            h(rec, args, kwargs, out, outermost)

    return hook


def _rows(args, kwargs, out) -> int:
    return int(args[0].shape[0])


def _sample_packets(args, kwargs, out) -> int:
    if isinstance(out, list):
        return sum(int(s.num_packets) for s in out)
    return int(out.num_packets)


def _event_packets(args, kwargs, out) -> int:
    births = args[1] if len(args) > 1 else kwargs["birth_times"]
    if isinstance(out, list):
        return sum(len(b) for b in births)
    return len(births)


def _fixed_point(rec, args, kwargs, out, outermost):
    if hasattr(out, "sweep_rows"):
        rec.count("fixedpoint.sweeps", out.sweeps)
        rec.count("fixedpoint.sweep_rows", out.sweep_rows)


def _store_probe(rec, args, kwargs, out, outermost):
    if outermost:
        rec.count("store.probes")
        rec.count("store.hits", out is not None)


def _coalesced(rec, args, kwargs, out, outermost):
    rec.count("jobs.coalesced", not out[1])


@dataclass(frozen=True)
class Layer:
    """One layer: its span name, the metric its self time feeds, and
    the callables whose calls are its spans.

    A target is ``"module:attr"`` or ``"module:Class.method"`` (the
    method is also wrapped on every subclass that overrides it), or
    ``"module:simulate_*"`` for every module function with the prefix.
    ``returns`` targets are factories whose returned callable is the
    span; ``counters`` are counter-only wrappers (no span).
    """

    span: str
    metric: str
    targets: Tuple[Tuple[str, Optional[Hook]], ...] = ()
    returns: Tuple[str, ...] = ()
    counters: Tuple[Tuple[str, Hook], ...] = ()


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "runner", "runner.self_s",
        targets=(("repro.runner.engine:measure_many", None),),
        counters=(
            ("repro.runner.engine:_execute",
             _count("runner.tasks", lambda a, k, o: len(a[0]))),
            ("repro.runner.engine:_run_task", _count("runner.waves")),
        ),
    ),
    Layer(
        "spec.normalise", "spec.normalise_s",
        targets=(
            ("repro.runner.spec:ScenarioSpec.from_dict", _count("spec.calls")),
            ("repro.runner.spec:ScenarioSpec.replace", _count("spec.calls")),
        ),
    ),
    Layer(
        "spec.hash", "spec.hash_s",
        targets=(
            ("repro.runner.spec:ScenarioSpec.content_hash", _count("spec.calls")),
            ("repro.runner.spec:ScenarioSpec.replication_hash",
             _count("spec.calls")),
        ),
    ),
    Layer(
        "store.load", "store.load_s",
        targets=(
            ("repro.runner.store:ResultsStore.load", _store_probe),
            ("repro.runner.store:ResultsStore.load_replication", _store_probe),
        ),
    ),
    Layer(
        "store.save", "store.save_s",
        targets=(
            ("repro.runner.store:ResultsStore.save", None),
            ("repro.runner.store:ResultsStore.save_replication", None),
        ),
    ),
    Layer(
        "traffic", "traffic.sample_s",
        targets=(
            ("repro.networks.api:NetworkPlugin.build_workload_batch",
             _count("traffic.packets", _sample_packets)),
            ("repro.traffic.workload:HypercubeWorkload.generate",
             _count("traffic.packets", _sample_packets)),
            ("repro.traffic.workload:ButterflyWorkload.generate",
             _count("traffic.packets", _sample_packets)),
            ("repro.traffic.workload:NodePoissonWorkload.generate",
             _count("traffic.packets", _sample_packets)),
            ("repro.traffic.workload:SlottedHypercubeWorkload.generate",
             _count("traffic.packets", _sample_packets)),
            ("repro.traffic.bursty:BurstyWorkload.generate",
             _count("traffic.packets", _sample_packets)),
        ),
    ),
    Layer(
        "engines", "engines.dispatch_s",
        targets=(
            ("repro.engines.api:EnginePlugin.simulate_batch", None),
            ("repro.engines.api:EnginePlugin.batch_deliveries", None),
            ("repro.engines.api:EnginePlugin.simulate", None),
        ),
    ),
    Layer(
        "feedforward.sweep", "feedforward.sweep_s",
        targets=(("repro.sim.feedforward:simulate_*", None),),
    ),
    Layer(
        "feedforward.serve_level", "feedforward.serve_level_s",
        targets=tuple(
            (target, _hooks(
                _count("feedforward.serve_level_rows", _rows, False),
                _count("feedforward.serve_level_calls", outermost_only=False),
            ))
            for target in (
                "repro.sim.feedforward:serve_level",
                "repro.sim.feedforward:_serve_fifo_carry",
                "repro.sim.feedforward:_PsLevelCarry.serve",
            )
        ),
    ),
    Layer(
        "servers.ps", "servers.ps_s",
        targets=(("repro.sim.servers:ps_departure_times",
                  _count("servers.ps_calls")),),
    ),
    Layer(
        "fixedpoint", "fixedpoint.solve_s",
        targets=(
            ("repro.sim.fixedpoint:simulate_paths_fixed_point", _fixed_point),
            ("repro.sim.fixedpoint:simulate_paths_fixed_point_batch", None),
        ),
    ),
    Layer(
        "eventsim", "eventsim.run_s",
        targets=(
            ("repro.sim.eventsim:simulate_paths_event_driven",
             _count("eventsim.packets", _event_packets)),
            ("repro.sim.eventsim:simulate_paths_event_driven_batch",
             _count("eventsim.packets", _event_packets)),
        ),
    ),
    Layer(
        "schemes", "schemes.route_s",
        returns=(
            "repro.schemes.random_order:RandomOrderPlugin.batch_runner",
            "repro.schemes.random_order:RandomOrderPlugin.prepare",
        ),
    ),
    Layer(
        "output", "output.trim_s",
        targets=(
            ("repro.plugins.api:steady_output", None),
            ("repro.engines.api:batch_output", None),
        ),
    ),
    Layer(
        "http.read", "http.read_s",
        targets=(("repro.serve.http:read_request", None),),
    ),
    Layer(
        "http.send", "http.send_s",
        targets=tuple(
            (f"repro.serve.http:{name}", None)
            for name in ("send_response", "send_json", "start_sse", "send_sse_event")
        ),
    ),
    Layer(
        "app", "app.route_s",
        targets=(("repro.serve.app:ReproServer._route_measure", None),),
    ),
    Layer(
        "jobs.submit", "jobs.submit_s",
        targets=(("repro.serve.jobs:JobManager.submit", _coalesced),),
    ),
)

#: layers on the in-process simulation path
SIM_LAYERS = tuple(
    layer.span for layer in LAYERS
    if layer.span not in ("http.read", "http.send", "app", "jobs.submit")
)
#: layers of the server's front end (its pool workers are not traced)
FRONT_END_LAYERS = (
    "spec.normalise", "spec.hash", "store.load", "store.save",
    "http.read", "http.send", "app", "jobs.submit",
)

#: counters, in the order the per-layer metrics list them
COUNTERS = (
    "runner.tasks", "runner.waves", "spec.calls", "store.probes",
    "store.hits", "traffic.packets", "feedforward.serve_level_rows",
    "feedforward.serve_level_calls", "servers.ps_calls",
    "fixedpoint.sweeps", "fixedpoint.sweep_rows", "eventsim.packets",
    "jobs.coalesced",
)


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        #: targets that no longer exist in the program (their metrics
        #: then read 0); reported so a rename does not go unnoticed
        self.missing: List[str] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _resolve(target: str) -> List[Tuple[Any, str]]:
    """Every ``(owner, attr)`` binding a target names."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name)
        return [(c, meth) for c in _subclasses(cls) if meth in c.__dict__]
    if path.endswith("*"):
        names = [
            n for n, v in vars(module).items()
            if n.startswith(path[:-1]) and inspect.isfunction(v)
            and v.__module__ == module_name
        ]
    else:
        names = [path] if path in vars(module) else []
    bindings = []
    loaded = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    for name in names:
        fn = vars(module)[name]
        for m in loaded:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    bindings.append((m, attr))
    return bindings


def _replacement(raw: Any, make: Callable[[Callable], Callable]) -> Any:
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    return make(raw)


def install(rec: Recorder, spans: Sequence[str]) -> Patches:
    """Wrap every target of the named layers; returns the handle that
    restores them."""
    layers = [layer for layer in LAYERS if layer.span in spans]
    modules = {
        t.partition(":")[0]
        for layer in layers
        for t in [x for x, _ in layer.targets] + list(layer.returns)
        + [x for x, _ in layer.counters]
    }
    for name in sorted(modules):  # import first: bindings are scanned after
        importlib.import_module(name)
    patches = Patches()
    for layer in layers:
        span = layer.span
        plan = [(t, lambda f, h=h: _wrap(f, rec, span, h))
                for t, h in layer.targets]
        plan += [(t, lambda f: _wrap_returned(f, rec, span))
                 for t in layer.returns]
        plan += [(t, lambda f, h=h: _wrap(f, rec, None, h))
                 for t, h in layer.counters]
        for target, make in plan:
            bindings = _resolve(target)
            if not bindings:
                patches.missing.append(target)
            for owner, attr in bindings:
                patches.set(owner, attr, _replacement(owner.__dict__[attr], make))
    return patches


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Self time per layer metric, counters, and the ``untraced``
    remainder of the recorded wall time (all totals)."""
    own, _ = rec.self_times()
    out = {layer.metric: own.get(layer.span, 0.0) for layer in LAYERS}
    for key in COUNTERS:
        out[key] = float(rec.counts.get(key, 0))
    probes = out["store.probes"]
    out["store.hit_ratio"] = out["store.hits"] / probes if probes else 0.0
    out["traced_wall_s"] = rec.wall
    out["untraced_s"] = rec.wall - sum(own.values())
    return out
