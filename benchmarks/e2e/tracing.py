"""Wall-clock spans around the public calls of each layer.

The benchmark's own instrumentation: :func:`install` swaps timing
wrappers onto classes and modules of ``repro`` *in the current process*
(a benchmark child or the serve launcher), so nothing under ``src/``
changes.  Three kinds of boundary:

* **span** — calls that fire fewer than about 20k times per run record
  a span (name, start, end, parent span, cell id) kept in memory;
* **timed** — hotter calls (``Scenario.key``) only add to the layer's
  call count and accumulated time;
* **counted** — the hottest (``SimProcess.__init__``) only count.

Every span and timed call sits on a per-thread stack, so a layer's
*self* time is its total minus the time covered by wrapped calls
nested inside it.  The serve launcher's recorder is shared by the event
loop and the service's batch thread, so span ids come from one counter
and the shared tables change under a lock.  A wrapper whose target no
longer exists is skipped
(its metrics read 0), so a later refactor of ``src/`` degrades the
per-layer table instead of breaking the benchmark.

Spans leave the process as plain tuples and become one Chrome
trace-event document in the parent (:func:`chrome_document`).  The
clock is ``time.monotonic`` — system-wide on Linux, so spans of the
parent, the pass children and the serve launcher share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager

__all__ = ["Recorder", "chrome_document", "install"]


class Recorder:
    """Spans, per-layer call/total/self accounting and plain counters."""

    def __init__(self) -> None:
        self.enabled = True
        #: (span id, parent span id, name, t0, t1, thread, cell id)
        self.spans: list[tuple] = []
        #: layer name -> [calls, total_s, self_s]
        self.layers: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}
        #: MPI worlds built but whose simulator has not run yet.
        self._worlds: list = []
        # Pool workers fork from a traced process: they record nothing
        # (their layers are covered by the serial workloads).
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()  # another thread may have held it

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def count(self, name: str) -> float:
        with self._lock:
            return self.counts.get(name, 0)

    def enter(self, name: str, span: bool = True, cell: str | None = None):
        """Open a frame; pass the result to :meth:`exit`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if span:
            sid = next(self._ids)
        else:
            sid = parent[3] if parent else 0
        if cell is None and parent is not None:
            cell = parent[4]
        # [name, t0, child_s, span id, cell, is_span, parent span id]
        frame = [name, 0.0, 0.0, sid, cell, span, parent[3] if parent else 0]
        stack.append(frame)
        frame[1] = time.monotonic()
        return frame

    def exit(self, frame) -> float:
        """Close ``frame``; returns its duration in seconds."""
        t1 = time.monotonic()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame[1]
        if stack:
            stack[-1][2] += dur
        with self._lock:
            layer = self.layers.get(frame[0])
            if layer is None:
                layer = self.layers[frame[0]] = [0, 0.0, 0.0]
            layer[0] += 1
            layer[1] += dur
            layer[2] += dur - frame[2]
            if frame[5]:
                ident = threading.get_ident()
                tid = self._threads.setdefault(ident, len(self._threads))
                self.spans.append(
                    (frame[3], frame[6], frame[0], frame[1], t1, tid, frame[4])
                )
        return dur

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        frame = self.enter(name, True, cell)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, fn, name: str, span: bool = True, cell_of=None):
        """``fn`` timed as layer ``name`` (a span, or timed only)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            frame = rec.enter(
                name, span, cell_of(*args) if cell_of is not None else None
            )
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(frame)

        return wrapper

    def snapshot(self) -> dict:
        """JSON-safe state, for a child process to hand to its parent."""
        return {
            "layers": self.layers,
            "counts": self.counts,
            "spans": self.spans,
        }


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module:Class.attr`` or ``None``."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr


def install(rec: Recorder):
    """Wrap every layer boundary; returns a function undoing it."""
    undo: list[tuple] = []

    def patch(module: str, path: str, make) -> None:
        target = _resolve(module, path)
        if target is None:
            return
        owner, attr = target
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    # The unwrapped key, so labelling a span does not count as a call.
    found = _resolve("repro.run.scenario", "Scenario.key")
    raw_key = getattr(*found) if found is not None else None

    def cell_id(sc, *rest):
        return raw_key(sc)[:12] if raw_key is not None else None

    def simple(name, span=True, cell_of=None):
        return lambda fn: rec.wrap(fn, name, span, cell_of)

    # -- run: runner, cache, cells, pool transport ----------------------
    def runner_call(fn):
        @functools.wraps(fn)
        def wrapper(self, scenarios, *args, **kwargs):
            if not rec.enabled:
                return fn(self, scenarios, *args, **kwargs)
            pools = rec.count("run.pool.pools")
            frame = rec.enter("run.runner")
            try:
                records = fn(self, scenarios, *args, **kwargs)
            finally:
                wall = rec.exit(frame)
            if rec.count("run.pool.pools") > pools:
                busy = sum(r.duration_s for r in records if not r.cached)
                rec.add("run.pool.busy_s", busy)
                rec.add("run.pool.capacity_s", self.jobs * wall)
                rec.add("run.pool.overhead_s", wall - busy / self.jobs)
            return records

        return wrapper

    patch("repro.run.runner", "Runner.run", runner_call)
    patch("repro.run.runner", "Runner.run_batch", runner_call)
    patch("repro.run.scenario", "Scenario.key", simple("run.scenario.key", False))

    def cache_get(fn):
        @functools.wraps(fn)
        def wrapper(self, scenario):
            if not rec.enabled:
                return fn(self, scenario)
            frame = rec.enter("run.cache.get")
            try:
                rows = fn(self, scenario)
            finally:
                rec.exit(frame)
            if rows is not None:
                rec.add("run.cache.hits")
            return rows

        return wrapper

    patch("repro.run.cache", "ResultCache.get", cache_get)
    patch("repro.run.cache", "ResultCache.put", simple("run.cache.put"))

    def cell(fn):
        @functools.wraps(fn)
        def wrapper(scenario):
            if not rec.enabled:
                return fn(scenario)
            frame = rec.enter("run.cell", True, cell_id(scenario))
            try:
                return fn(scenario)
            except Exception:
                rec.add("run.cell.failed")
                raise
            finally:
                rec.exit(frame)

        return wrapper

    patch("repro.run.runner", "execute_scenario", cell)

    def counting_pool(cls):
        class CountingPool(cls):
            def __init__(self, *args, **kwargs):
                if rec.enabled:
                    rec.add("run.pool.pools")
                super().__init__(*args, **kwargs)

        return CountingPool

    patch("repro.run.runner", "ProcessPoolExecutor", counting_pool)

    def decode_outcome(fn):
        @functools.wraps(fn)
        def wrapper(arena, outcome):
            if rec.enabled and outcome[1] is None and type(outcome[0]) is not dict:
                rec.add("shmem.pickle_cells")
            return fn(arena, outcome)

        return wrapper

    patch("repro.run.runner", "_decode_outcome", decode_outcome)
    patch("repro.shmem.arena", "ResultArena.decode", simple("shmem.decode"))

    # -- machine, netmodel ----------------------------------------------
    patch("repro.run.scenario", "MachineSpec.build", simple("machine.build"))
    patch("repro.run.scenario", "PlacementSpec.build", simple("machine.placement"))
    patch("repro.netmodel.costs", "NetworkModel.__init__", simple("netmodel.model"))
    patch("repro.netmodel.costs", "NetworkModel.stats", simple("netmodel.path_stats"))
    patch(
        "repro.netmodel.collectives", "CollectiveModel.__init__",
        simple("netmodel.collective_model"),
    )

    # -- sim, mpi ---------------------------------------------------------
    def sim_run(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not rec.enabled:
                return fn(self, *args, **kwargs)
            before = self.events_executed
            frame = rec.enter("sim.run")
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.exit(frame)
                rec.add("sim.events", self.events_executed - before)
                with rec._lock:
                    ran = [w for w in rec._worlds if w.sim is self]
                    for world in ran:
                        rec._worlds.remove(world)
                for world in ran:
                    rec.add("mpi.messages", world.messages_sent)
                    rec.add("mpi.bytes", world.bytes_sent)

        return wrapper

    patch("repro.sim.engine", "Simulator.run", sim_run)

    def process_init(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.enabled:
                rec.add("sim.processes")
            return fn(*args, **kwargs)

        return wrapper

    patch("repro.sim.process", "SimProcess.__init__", process_init)

    def world_init(fn):
        traced = rec.wrap(fn, "mpi.world_init")

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            traced(self, *args, **kwargs)
            if rec.enabled:
                with rec._lock:
                    if len(rec._worlds) > 64:  # a world that never ran
                        del rec._worlds[0]
                    rec._worlds.append(self)

        return wrapper

    patch("repro.mpi.comm", "MPIWorld.__init__", world_init)

    # -- surrogate --------------------------------------------------------
    patch(
        "repro.surrogate.evaluator", "evaluate_scenario",
        simple("surrogate.eval", True, cell_id),
    )

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def chrome_document(processes) -> dict:
    """One Chrome trace-event document from several processes' spans.

    ``processes`` is a sequence of ``(label, spans)``; each becomes one
    trace process (pid = its index).  Every complete event carries its
    span id, parent span id and cell/request id in ``args``.
    """
    starts = [s[3] for _, spans in processes for s in spans]
    base = min(starts) if starts else 0.0
    events: list[dict] = []
    for pid, (label, spans) in enumerate(processes):
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": label},
        })
        for sid, parent, name, t0, t1, tid, cell in spans:
            events.append({
                "ph": "X", "pid": pid, "tid": tid,
                "cat": name.split(".")[0], "name": name,
                "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"span": sid, "parent": parent, "id": cell},
            })
    return {"displayTimeUnit": "ms", "traceEvents": events}
