"""The scenario runner: one shared harness for every experiment cell.

``Runner.run(scenarios)`` returns one :class:`RunRecord` per scenario
**in input order**, regardless of cache state, backend, or completion
order — the property that makes ``--jobs N`` output row-for-row
identical to sequential runs.

Execution backends:

* sequential (``jobs=1``, the default) — cells run in-process;
* ``ProcessPoolExecutor`` (``jobs>1`` or ``jobs="auto"``) — cache
  misses fan out to worker processes; scenarios are pure data, so
  they pickle cleanly, and workers resolve workload ids through
  :func:`repro.run.workloads.resolve` (which lazily imports the
  experiment registry in a fresh interpreter).

A failing cell never kills the sweep: the exception is captured into
``RunRecord.error`` and the remaining cells proceed; the reporting
layer decides how loudly to complain.  That contract extends to dead
*workers*: a cell that takes its worker process down with it (OOM
kill, segfaulting extension, ``os._exit``) surfaces as a
:class:`RunRecord` error — the pool's ``BrokenProcessPool`` is caught,
the surviving cells are re-dispatched, and only the culprit is
reported failed.

Resilience knobs (all off by default):

* ``retries=N`` — re-run a failed cell up to N times with exponential
  backoff before recording the failure (transient-failure hygiene);
* ``faults=SPEC`` — overlay a :class:`~repro.faults.FaultSpec` onto
  every scenario (merged with any cell-level spec), the CLI's
  ``--faults`` path.

Resuming is the cache's job: every completed cell is appended to the
runner's :class:`~repro.run.cache.ResultCache`, so a sweep re-run
after a crash (or a ``kill -9``) on the same cache directory replays
finished cells instead of re-executing them.  Failures are never
cached, so a resumed sweep re-runs them.

Each runner owns at most one worker pool: built lazily by its first
parallel :meth:`Runner.run`, reused by every later call (a CLI sweep's
experiments and a serve batch stream alike), and released by
:meth:`Runner.close`.  Rows come back from the workers by pickle.
Workers fork when the pool is built, so workloads and machines
registered after a runner's first parallel ``run()`` are not visible to
its workers.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ConfigurationError
from repro.faults.context import use_faults
from repro.faults.spec import FaultSpec
from repro.run.cache import ResultCache
from repro.run.scenario import Scenario, canonical_value
from repro.run.workloads import EXACT, _entry

__all__ = [
    "RunRecord",
    "Runner",
    "RunStats",
    "default_runner",
    "execute_scenario",
]

#: Error string recorded for a cell whose worker process died; tested
#: for by the reporting layer and the robustness tests.
WORKER_DIED = "worker process died (BrokenProcessPool)"


@dataclass(frozen=True)
class RunRecord:
    """The outcome of one scenario cell."""

    scenario: Scenario
    rows: tuple[tuple, ...]
    error: str | None = None
    cached: bool = False
    duration_s: float = 0.0
    #: the cell asked for a non-``full`` fidelity but ran the full
    #: path anyway (no surrogate, or the calibrated bound could not
    #: vouch for it) — the transparent-escalation audit flag.
    escalated: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


#: How many ``RunStats.failures`` entries are kept; later failures are
#: still counted in ``RunStats.errors``, so a long-lived ``repro serve``
#: fed failing cells holds a bounded list.
MAX_FAILURES = 100


@dataclass
class RunStats:
    """Aggregate cell accounting across a runner's lifetime."""

    executed: int = 0
    cached: int = 0
    errors: int = 0
    #: cells served in-process by the surrogate fast path (a subset
    #: of ``executed``).
    fast: int = 0
    #: non-``full`` cells transparently escalated to the full path.
    escalated: int = 0
    #: ``"<scenario-id>: <error>"`` per failed cell, sweep order; the
    #: first :data:`MAX_FAILURES` only.
    failures: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.executed + self.cached

    def failure_lines(self) -> list[str]:
        """``FAILED <scenario-id>: <error>`` per kept failed cell."""
        return [f"FAILED {f}" for f in self.failures]


def _normalize_rows(scenario: Scenario, rows) -> tuple[tuple, ...]:
    """Canonicalize a cell's return value: rows of JSON-safe scalars
    (nested sequences become nested tuples — the cache's one normal
    form, so fresh rows compare equal to cache-round-tripped ones)."""
    if rows is None:
        raise ConfigurationError(
            f"{scenario.describe()}: cell returned None (want rows)"
        )
    try:
        return tuple(
            tuple(canonical_value(v) for v in row) for row in rows
        )
    except ConfigurationError as exc:
        # The cell label is built only on the failure path — the
        # surrogate tier normalizes rows at ~1e5 cells/s and the
        # happy path must not pay for an error prefix.
        raise ConfigurationError(
            f"{scenario.describe()}: row {exc}"
        ) from None


def execute_scenario(scenario: Scenario) -> tuple[tuple, ...]:
    """Run one cell at its fidelity: the one executor for every tier.

    A ``full`` cell calls its workload's cell function.  An
    ``analytic`` or ``hybrid`` cell calls the fast form the workload
    declared (:func:`repro.run.workloads.workload`): the cell function
    itself for an exact passthrough, ``form(fidelity, **kwargs)`` for
    a modeled one; a workload that declared none raises
    :class:`~repro.errors.ConfigurationError` (the runner escalates
    such a cell by running its ``full`` twin).

    When the scenario declares a machine spec, the built cluster is
    passed as ``cluster=`` — or, if a placement spec is declared too,
    a built ``placement=`` (which carries the cluster on it).

    The cell runs under its scenario's fault context
    (:func:`repro.faults.use_faults`), salted with the scenario key —
    every layer that prices a degraded machine picks the injector up
    ambiently, and the same cell always draws the same fault stream.
    """
    fn, fast = _entry(scenario.workload)
    mode = scenario.fidelity
    modeled = mode != "full" and fast != EXACT
    if modeled and fast is None:
        raise ConfigurationError(
            f"{scenario.describe()}: no surrogate declared for workload "
            f"{scenario.workload!r}; only fidelity='full' can serve it"
        )
    kwargs = scenario.kwargs()
    # The salt (a sha256 content hash) only matters when an injector
    # is actually built; healthy cells skip the digest entirely.
    faults = scenario.faults
    with use_faults(faults, salt=scenario.key() if faults else ""):
        if scenario.machine is not None:
            cluster = scenario.machine.build()
            if scenario.placement is not None:
                kwargs["placement"] = scenario.placement.build(cluster)
            else:
                kwargs["cluster"] = cluster
        elif scenario.placement is not None:
            raise ConfigurationError(
                f"{scenario.describe()}: placement spec without machine spec"
            )
        rows = fast(mode, **kwargs) if modeled else fn(**kwargs)
        return _normalize_rows(scenario, rows)


def _trace_path(trace_dir: str, scenario: Scenario):
    from pathlib import Path

    return Path(trace_dir) / f"{scenario.workload}-{scenario.key()[:12]}.trace.json"


def _run_cell(scenario: Scenario, trace_dir: str | None = None):
    """Worker entry point: never raises (errors travel in-band).

    With ``trace_dir`` set, the cell runs under a fresh ambient
    :class:`~repro.obs.spans.Tracer` and its Chrome trace is written
    to ``<trace_dir>/<workload>-<key12>.trace.json`` (cells whose
    workloads never touch an instrumented layer record nothing and
    write nothing).
    """
    start = time.perf_counter()
    try:
        if trace_dir is None:
            rows = execute_scenario(scenario)
        else:
            from repro.obs.export import write_chrome_trace
            from repro.obs.spans import Tracer, use_tracer

            tracer = Tracer()
            with use_tracer(tracer):
                rows = execute_scenario(scenario)
            if tracer.spans or tracer.messages:
                write_chrome_trace(tracer, _trace_path(trace_dir, scenario))
        return rows, None, time.perf_counter() - start
    except Exception as exc:  # per-cell capture: one bad cell reports
        err = f"{type(exc).__name__}: {exc}"
        return None, err, time.perf_counter() - start


def _resolve_jobs(jobs) -> int:
    if jobs in ("auto", None):
        return max(1, os.cpu_count() or 1)
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"--jobs must be an integer >= 1 or 'auto', got {jobs!r}"
        ) from None
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1 or 'auto', got {jobs}")
    return jobs


class Runner:
    """Executes scenario cells through the cache and a backend.

    One runner can serve many experiments (the CLI shares a single
    runner across ``repro all``); ``stats`` accumulates over its
    lifetime.  Every cell is first offered to :meth:`resolve_inline`
    (a cache hit at any fidelity, or a surrogate-served fast cell, on
    the calling thread); only what it hands back reaches a backend.
    See the module docstring for the resilience knobs (``retries``,
    ``faults``).
    """

    def __init__(
        self,
        jobs: int | str = 1,
        cache: ResultCache | None = None,
        trace_dir: str | None = None,
        faults: FaultSpec | None = None,
        fidelity: str | None = None,
        surrogate_policy: str = "escalate",
        error_table=None,
        retries: int = 0,
        retry_backoff: float = 0.05,
    ) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.cache = cache
        #: when set, every *executed* cell writes a per-cell Chrome
        #: trace here (cached cells are not re-run, hence not traced).
        self.trace_dir = trace_dir
        #: fault overlay merged onto every scenario (CLI ``--faults``).
        self.faults = faults if faults else None
        #: fidelity override applied to cells still at the default
        #: ``"full"`` (CLI ``--fidelity``); cells that declare their
        #: own non-default tier keep it, mirroring the faults merge.
        if fidelity is not None:
            fidelity = getattr(fidelity, "value", fidelity)
            if fidelity not in ("analytic", "hybrid", "full"):
                raise ConfigurationError(
                    f"runner fidelity must be analytic/hybrid/full, "
                    f"got {fidelity!r}"
                )
        self.fidelity = None if fidelity in (None, "full") else fidelity
        if surrogate_policy not in ("escalate", "refuse"):
            raise ConfigurationError(
                f"surrogate_policy must be 'escalate' or 'refuse', "
                f"got {surrogate_policy!r}"
            )
        #: what to do with a non-``full`` cell the calibrated error
        #: table cannot vouch for: ``"escalate"`` (default) runs it
        #: on the full path with ``RunRecord.escalated`` set;
        #: ``"refuse"`` records an error instead.
        self.surrogate_policy = surrogate_policy
        #: calibration error table override (tests); ``None`` loads
        #: the committed table lazily on the first non-``full`` cell.
        self.error_table = error_table
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {retries}")
        self.retries = int(retries)
        self.retry_backoff = retry_backoff
        self.stats = RunStats()
        #: the worker pool, built by the first parallel :meth:`run`.
        self._pool: ProcessPoolExecutor | None = None
        #: guards ``stats``: the serve tier resolves cache hits and fast
        #: cells on the event loop (:meth:`resolve_inline`) while a
        #: batch may be finishing in a worker thread.
        self._stats_lock = threading.Lock()
        #: (workload, fidelity, machine config) triples already vetted
        #: by the permit policy — a positive verdict is stable for the
        #: runner's lifetime, and the serve fast path asks per request.
        self._permit_ok: set[tuple[str, str, str | None]] = set()

    def effective_scenario(self, sc: Scenario) -> Scenario:
        """The scenario as this runner will actually execute it: the
        runner-level fault overlay merged in, the runner-level
        fidelity filled in for cells still at the default.  The serve
        layer keys its coalescing map on
        ``effective_scenario(sc).key()`` so two requests coalesce iff
        they would produce the same cell."""
        if self.faults is None and self.fidelity is None:
            return sc
        changes: dict = {}
        if self.faults is not None:
            changes["faults"] = (
                self.faults if sc.faults is None
                else sc.faults.merge(self.faults)
            )
        if self.fidelity is not None and sc.fidelity == "full":
            changes["fidelity"] = self.fidelity
        return replace(sc, **changes) if changes else sc

    def snapshot(self) -> dict[str, int]:
        """Every runner and cache counter as one flat ``{name: number}``
        dict: ``runner.*`` always, and each :class:`CacheStats` field
        as ``cache.*`` when there is a cache."""
        stats = self.stats
        with self._stats_lock:
            out = {
                "runner.cells": stats.total,
                "runner.cached": stats.cached,
                "runner.executed": stats.executed,
                "runner.errors": stats.errors,
                "runner.fast": stats.fast,
                "runner.escalated": stats.escalated,
            }
        if self.cache is not None:
            for name, value in vars(self.cache.stats).items():
                out[f"cache.{name}"] = value
        return out

    def close(self) -> None:
        """Release the worker pool and the cache's open file."""
        self._discard_pool()
        if self.cache is not None:
            self.cache.close()

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _surrogate_permit(self, sc: Scenario) -> tuple[bool, str]:
        """May the surrogate serve this non-``full`` cell?

        Positive verdicts are memoized per (workload, fidelity,
        machine config), everything the verdict depends on: exactness
        and calibration entries are per family, and per machine on the
        zoo, so one yes covers every cell of a sweep — the per-request
        cost on the serve fast path is one set probe.
        """
        key = (
            sc.workload, sc.fidelity,
            None if sc.machine is None else sc.machine.config,
        )
        if key in self._permit_ok:
            return True, ""
        from repro.surrogate.calibrate import (
            default_error_table,
            permit_scenario,
        )

        table = (
            self.error_table if self.error_table is not None
            else default_error_table()
        )
        permitted, reason = permit_scenario(sc, table)
        if permitted:
            self._permit_ok.add(key)
        return permitted, reason

    def _finish_cell(
        self,
        sc: Scenario,
        rows,
        error: str | None,
        dt: float,
        fast: bool = False,
        escalated: bool = False,
    ) -> RunRecord:
        """Account one executed cell and build its record (the single
        funnel for stats and cache — thread-safe, because
        the serve tier finishes fast cells on the event loop while a
        batch finishes in a worker thread)."""
        with self._stats_lock:
            self.stats.executed += 1
            if fast:
                self.stats.fast += 1
            if escalated:
                self.stats.escalated += 1
            if error is not None:
                self.stats.errors += 1
                if len(self.stats.failures) < MAX_FAILURES:
                    self.stats.failures.append(f"{sc.describe()}: {error}")
        if error is not None:
            return RunRecord(
                sc, (), error=error, duration_s=dt, escalated=escalated
            )
        record = RunRecord(sc, rows, duration_s=dt, escalated=escalated)
        if self.cache is not None:
            self.cache.put(sc, list(rows))
        return record

    def resolve_inline(
        self, sc: Scenario, trace_dir: str | None = None
    ) -> RunRecord | None:
        """Resolve one cell entirely on the calling thread, or return
        ``None`` when it needs the full path.

        The first step for every cell, from :meth:`run` and from the
        serve tier's inline entry.  A cache hit, at any fidelity, is
        returned as a counted cached record.  A non-``full`` miss the
        permit policy vouches for is then run in its fast form right
        here by :func:`execute_scenario` — microseconds, no queue, no
        pool, no pickling.  ``None`` means "not mine": a ``full`` miss,
        or a non-``full`` miss that must escalate (the surrogate cannot
        vouch for it).  Under the ``refuse`` policy an unservable cell
        returns an error record instead of escalating.  A set
        ``trace_dir`` (it defaults to the runner's) skips the cache
        probe: a hit would skip the instrumented layers and record
        nothing.  ``sc`` must already be effective
        (:meth:`effective_scenario`); a raw scenario would silently
        lose the runner's fault overlay.
        """
        if trace_dir is None:
            trace_dir = self.trace_dir
        if trace_dir is None and self.cache is not None:
            rows = self.cache.get(sc)
            if rows is not None:
                with self._stats_lock:
                    self.stats.cached += 1
                return RunRecord(sc, tuple(rows), cached=True)
        if sc.fidelity == "full":
            return None
        permitted, reason = self._surrogate_permit(sc)
        if not permitted:
            if self.surrogate_policy == "refuse":
                return self._finish_cell(sc, None, reason, 0.0)
            return None
        rows, error, dt = _run_cell(sc, trace_dir)
        return self._finish_cell(sc, rows, error, dt, fast=True)

    def run(
        self,
        scenarios: Sequence[Scenario],
        trace_dir: str | None = None,
    ) -> list[RunRecord]:
        """All cells, as records in input order.

        Every cell goes through :meth:`resolve_inline` first; what it
        hands back runs the full path, a non-``full`` cell flagged as
        escalated.  Those cells fan out to the runner's worker pool when
        ``jobs > 1`` and more than one of them is left — fast cells
        never count toward that, so an all-analytic sweep spins up no
        workers.  ``trace_dir`` overrides the runner-level trace
        directory for this call only, which is how the serve layer
        honors per-request ``--trace``.
        Not thread-safe: one call at a time per runner (the serve
        dispatcher is the single caller).
        """
        if trace_dir is None:
            trace_dir = self.trace_dir
        scenarios = [self.effective_scenario(sc) for sc in scenarios]
        records: list[RunRecord | None] = [None] * len(scenarios)

        pending: list[int] = []
        escalated: set[int] = set()
        for i, sc in enumerate(scenarios):
            records[i] = self.resolve_inline(sc, trace_dir)
            if records[i] is None:
                pending.append(i)
                if sc.fidelity != "full":
                    escalated.add(i)

        # An escalated cell runs as its ``full`` twin; its record keeps
        # the requested tier.
        todo = [
            replace(scenarios[i], fidelity="full") if i in escalated
            else scenarios[i]
            for i in pending
        ]
        if len(todo) > 1 and self.jobs > 1:
            outcomes = self._run_parallel(todo, trace_dir)
        else:
            outcomes = [
                self._run_with_retries(sc, trace_dir=trace_dir) for sc in todo
            ]

        for i, (rows, error, dt) in zip(pending, outcomes):
            records[i] = self._finish_cell(
                scenarios[i], rows, error, dt, escalated=(i in escalated)
            )
        return records  # type: ignore[return-value]

    def _run_with_retries(
        self,
        sc: Scenario,
        isolated: bool = False,
        trace_dir: str | None = None,
    ):
        """One cell, re-attempted with exponential backoff on failure."""
        outcome = (
            self._run_isolated(sc, trace_dir) if isolated
            else _run_cell(sc, trace_dir)
        )
        for attempt in range(self.retries):
            if outcome[1] is None:
                break
            time.sleep(self.retry_backoff * (2.0 ** attempt))
            rows, err, dt = (
                self._run_isolated(sc, trace_dir) if isolated
                else _run_cell(sc, trace_dir)
            )
            outcome = (rows, err, outcome[2] + dt)
        return outcome

    def _run_isolated(self, sc: Scenario, trace_dir: str | None = None):
        """One cell in its own single-worker pool.

        The quarantine backend for cells suspected of killing their
        worker: an innocent cell completes normally; a culprit breaks
        only its private pool and is reported as :data:`WORKER_DIED`
        instead of taking neighbors down with it.
        """
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                return pool.submit(_run_cell, sc, trace_dir).result()
            except BrokenProcessPool:
                return None, WORKER_DIED, time.perf_counter() - start

    def _run_parallel(self, scenarios: list[Scenario], trace_dir: str | None):
        """Fan cells out to the runner's pool; results in input order.

        A worker death poisons the pool: the culprit's future *and*
        every future still queued behind it raise
        ``BrokenProcessPool``, and the executor cannot say which cell
        pulled the trigger.  All affected cells are therefore re-run
        quarantined (one fresh single-worker pool each) — innocents
        complete on the retry, the culprit fails alone, and the sweep
        always returns one outcome per cell.  The poisoned pool is
        discarded, so the next call builds a fresh one.
        """
        outcomes: list = [None] * len(scenarios)
        suspects: list[int] = []
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            futures = [
                self._pool.submit(_run_cell, sc, trace_dir) for sc in scenarios
            ]
        except BrokenProcessPool:
            # The pool died mid-submission (a worker lost since the
            # last call): every cell goes through quarantine below.
            suspects = list(range(len(scenarios)))
            futures = []
        # Futures are awaited in submission order, so the outcome list
        # is ordered no matter which worker finishes first.
        for i, future in enumerate(futures):
            try:
                outcomes[i] = future.result()
            except BrokenProcessPool:
                suspects.append(i)
        if suspects:
            self._discard_pool()
        for i in suspects:
            outcomes[i] = self._run_with_retries(
                scenarios[i], isolated=True, trace_dir=trace_dir
            )
        if self.retries:
            outcomes = [
                (
                    outcome if outcome[1] is None or i in suspects
                    else self._run_with_retries(
                        scenarios[i], isolated=True, trace_dir=trace_dir
                    )
                )
                for i, outcome in enumerate(outcomes)
            ]
        return outcomes


#: Process-wide default: sequential, memory-only cache.  Library
#: callers (and the test suite) get deterministic, hermetic behavior
#: with intra-process memoization; the CLI builds its own disk-backed
#: runner and threads it through explicitly.
_default_runner: Runner | None = None


def default_runner() -> Runner:
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner(jobs=1, cache=ResultCache(memory_only=True))
    return _default_runner
