"""The exploration driver: optimizer ↔ runner evaluation loop.

One :class:`ExploreDriver` wires the three declarative pieces
together — a :class:`~repro.explore.space.SearchSpace`, an
:class:`~repro.explore.objective.Objective`, and an
:class:`~repro.explore.optimizers.Optimizer` — and scores each round
of candidates with one :meth:`~repro.run.runner.Runner.run` call over
their replicate cells: analytic-fidelity cells resolve on the fast
path (microseconds each, no pool), full-DES cache misses fan out to
the runner's worker pool.

Budgets and resumability:

* ``max_cells`` bounds the number of replicate cells *submitted*
  (journal replays and in-run memo hits are free);
* ``max_seconds`` bounds wall clock, checked between batches;
* ``journal=PATH`` appends one JSONL line per scored candidate — the
  trajectory — and a re-run with the same space/objective/optimizer
  replays journaled candidates through ``tell`` without re-submitting
  them, exactly like a re-run on the same ``--cache-dir`` resumes a
  sweep (both files are a :class:`~repro.run.journal.JsonlJournal`).
  Lines carry no wall-clock data, so two runs from one seed produce
  byte-identical journals (the determinism contract the explore tests
  pin).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.explore.objective import Objective
from repro.explore.optimizers import Optimizer, make_optimizer
from repro.explore.space import SearchSpace
from repro.run.journal import JsonlJournal
from repro.run.runner import Runner

__all__ = [
    "ExploreDriver",
    "ExploreRecord",
    "ExploreResult",
    "ExploreStats",
    "TrajectoryJournal",
    "explore",
]

#: Journal format version (header field).
_JOURNAL_VERSION = 1


def candidate_id(candidate: tuple[int, ...]) -> str:
    """The journal key for a candidate: its index tuple, dash-joined
    (``(2, 0, 1)`` → ``"2-0-1"``) — compact, orderable, greppable."""
    return "-".join(str(i) for i in candidate)


@dataclass(frozen=True)
class ExploreRecord:
    """One scored candidate on the trajectory."""

    #: evaluation order within the exploration (0-based).
    index: int
    candidate: tuple[int, ...]
    #: ``(name, value)`` pairs, dimension order (JSON-safe forms).
    assignment: tuple[tuple[str, Any], ...]
    #: the objective's quantile score; ``None`` when every replicate
    #: failed.
    score: float | None
    #: per-replicate metric values (diagnostic; empty on failure).
    values: tuple[float, ...] = ()
    feasible: bool = True
    error: str | None = None
    #: replicate cells this candidate fanned into.
    cells: int = 0
    #: served from a prior run's journal (no cells submitted).
    replayed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExploreStats:
    """Driver accounting over one :meth:`ExploreDriver.run`."""

    #: candidates scored (replays included).
    candidates: int = 0
    #: replicate cells submitted to the runner.
    cells_submitted: int = 0
    #: candidates served from the trajectory journal.
    replayed: int = 0
    #: candidates the optimizer re-proposed within this run.
    memo_hits: int = 0
    #: candidates whose every replicate failed.
    errors: int = 0
    #: infeasible (constraint-violating) candidates.
    infeasible: int = 0
    #: why the loop ended: ``exhausted`` / ``max_cells`` /
    #: ``max_seconds``.
    stopped: str = "exhausted"

    def summary(self) -> str:
        return (
            f"explore: {self.candidates} candidates "
            f"({self.replayed} replayed, {self.memo_hits} memoized), "
            f"{self.cells_submitted} cells submitted, "
            f"{self.errors} failed, {self.infeasible} infeasible; "
            f"stopped: {self.stopped}"
        )


@dataclass
class ExploreResult:
    """What an exploration returns: the best candidate and the trail."""

    space: SearchSpace
    objective: Objective
    best: ExploreRecord | None
    records: list[ExploreRecord] = field(default_factory=list)
    stats: ExploreStats = field(default_factory=ExploreStats)

    def report(self) -> str:
        """Human-readable result block (the CLI's stdout)."""
        lines = [self.space.describe(), self.stats.summary()]
        if self.best is None:
            lines.append("no feasible candidate found")
            return "\n".join(lines)
        q = self.objective.quantile
        lines.append(
            f"best ({self.objective.mode} metric[{self.objective.metric}] "
            f"p{round(q * 100):g}, {self.objective.repeats} repeats): "
            f"score={self.best.score:g}"
        )
        for name, value in self.best.assignment:
            lines.append(f"  {name} = {value}")
        if len(self.best.values) > 1:
            spread = (
                f"  replicate spread: min={min(self.best.values):g} "
                f"max={max(self.best.values):g}"
            )
            lines.append(spread)
        return "\n".join(lines)


class TrajectoryJournal(JsonlJournal):
    """Append-only JSONL trail of scored candidates, resumable.

    The header binds the journal to its exploration: package version +
    calibration fingerprint (the cache's invalidation contract) plus
    the space hash and the objective/optimizer payloads — resuming
    under *any* changed ingredient starts fresh (the stale journal is
    truncated on first write).  Each later line is one candidate::

        {"key": "2-0-1", "candidate": [...], "assignment": [...],
         "score": ..., "values": [...], "feasible": true,
         "error": null, "cells": 3}

    A killed exploration loses at most the candidate in progress; the
    torn tail is cut on resume (:class:`~repro.run.journal.
    JsonlJournal`, shared with the cell store).  Deliberately
    wall-clock-free: two runs from one seed write byte-identical
    journals.
    """

    def __init__(
        self,
        path: str | Path,
        space: SearchSpace,
        objective: Objective,
        optimizer: Optimizer,
    ) -> None:
        from repro.run.cache import _package_version, calibration_fingerprint

        super().__init__(path, {
            "explore": _JOURNAL_VERSION,
            "context": f"{_package_version()}|{calibration_fingerprint()}",
            "space": space.key(),
            "objective": objective.payload(),
            "optimizer": optimizer.payload(),
        })


class ExploreDriver:
    """Runs one exploration: ask candidates, evaluate them on the
    runner, tell losses, track the best, journal the trail."""

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        optimizer: Optimizer | str = "random",
        seed: int = 0,
        runner: Runner | None = None,
        journal: str | Path | TrajectoryJournal | None = None,
        max_cells: int | None = None,
        max_seconds: float | None = None,
        batch_size: int = 64,
    ) -> None:
        if max_cells is not None and max_cells < 1:
            raise ConfigurationError(
                f"max_cells must be >= 1, got {max_cells}"
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.space = space
        self.objective = objective
        self.optimizer = (
            make_optimizer(optimizer, space, seed=seed)
            if isinstance(optimizer, str) else optimizer
        )
        #: one runner for every round; a runner the driver builds
        #: itself is closed when :meth:`run` ends.
        self.runner = Runner() if runner is None else runner
        self._owned_runner = runner is None
        self.journal = (
            journal
            if journal is None or isinstance(journal, TrajectoryJournal)
            else TrajectoryJournal(
                journal, space, objective, self.optimizer
            )
        )
        self.max_cells = max_cells
        self.max_seconds = max_seconds
        #: candidates asked per optimizer round; a round's replicate
        #: cells go to the runner in one :meth:`Runner.run` call.
        self.batch_size = batch_size
        #: in-run memo: candidate key → (score, feasible) — the guard
        #: that re-proposed candidates never cost cells.
        self._memo: dict[str, tuple[float | None, bool]] = {}

    # -- evaluation -----------------------------------------------------------

    def _evaluate(
        self, todo: list[tuple[int, ...]], stats: ExploreStats
    ) -> list[ExploreRecord]:
        """Score a batch of fresh candidates with one runner call."""
        fans = [
            self.objective.replicas(self.space.scenario_for(c)) for c in todo
        ]
        cells = [sc for fan in fans for sc in fan]
        results = self.runner.run(cells)
        stats.cells_submitted += len(cells)
        records = []
        offset = 0
        for cand, fan in zip(todo, fans):
            outcome = results[offset:offset + len(fan)]
            offset += len(fan)
            rows = [r.rows for r in outcome if r.ok]
            errors = [r.error for r in outcome if not r.ok]
            score: float | None = None
            values: tuple[float, ...] = ()
            feasible = True
            error: str | None = None
            if not rows:
                error = errors[0] if errors else "no replicate produced rows"
            else:
                try:
                    values = self.objective.metric_values(rows)
                    score, feasible = self.objective.score(rows)
                except ConfigurationError as exc:
                    error = str(exc)
                    score, feasible = None, True
            records.append(ExploreRecord(
                index=0,  # assigned by the loop, evaluation order
                candidate=cand,
                assignment=self.space.assignment(cand),
                score=score,
                values=values,
                feasible=feasible,
                error=error,
                cells=len(fan),
            ))
        return records

    def _replay(self, cand: tuple[int, ...], entry: dict[str, Any]) -> ExploreRecord:
        return ExploreRecord(
            index=0,
            candidate=cand,
            assignment=self.space.assignment(cand),
            score=entry.get("score"),
            values=tuple(entry.get("values", ())),
            feasible=bool(entry.get("feasible", True)),
            error=entry.get("error"),
            cells=0,
            replayed=True,
        )

    @staticmethod
    def _entry(key: str, record: ExploreRecord) -> dict[str, Any]:
        return {
            "key": key,
            "candidate": list(record.candidate),
            "assignment": [[k, v] for k, v in record.assignment],
            "score": record.score,
            "values": list(record.values),
            "feasible": record.feasible,
            "error": record.error,
            "cells": record.cells,
        }

    # -- the loop -------------------------------------------------------------

    def run(self) -> ExploreResult:
        stats = ExploreStats()
        records: list[ExploreRecord] = []
        best: ExploreRecord | None = None
        start = time.monotonic()
        try:
            while True:
                if (
                    self.max_seconds is not None
                    and time.monotonic() - start >= self.max_seconds
                ):
                    stats.stopped = "max_seconds"
                    break
                batch = self.optimizer.ask(self.batch_size)
                if not batch:
                    stats.stopped = "exhausted"
                    break

                todo: list[tuple[int, ...]] = []
                memoized: set[tuple[int, ...]] = set()
                replays: dict[tuple[int, ...], ExploreRecord] = {}
                for cand in batch:
                    key = candidate_id(cand)
                    if key in self._memo:
                        stats.memo_hits += 1
                        memoized.add(cand)
                        continue
                    entry = (
                        self.journal.get(key)
                        if self.journal is not None else None
                    )
                    if entry is not None:
                        stats.replayed += 1
                        replays[cand] = self._replay(cand, entry)
                    else:
                        todo.append(cand)

                # Cell budget: trim the fresh portion so the fan never
                # overshoots; memoized/replayed candidates stay free.
                budget_hit = False
                if self.max_cells is not None:
                    remaining = self.max_cells - stats.cells_submitted
                    fit: list[tuple[int, ...]] = []
                    for cand in todo:
                        need = self.objective.repeats
                        if need > remaining:
                            budget_hit = True
                            break
                        remaining -= need
                        fit.append(cand)
                    todo = fit

                fresh = self._evaluate(todo, stats) if todo else []
                fresh_by_cand = {r.candidate: r for r in fresh}

                # Process in ask order so the trajectory (and the
                # optimizer's tell order) is reproducible.
                for cand in batch:
                    key = candidate_id(cand)
                    if cand in memoized:
                        # Re-proposed within this run: tell the memo
                        # loss again; no record, no journal line.
                        score, feasible = self._memo[key]
                        self.optimizer.tell(
                            cand, self.objective.loss(score, feasible)
                        )
                        continue
                    record = replays.get(cand) or fresh_by_cand.get(cand)
                    if record is None:
                        # Trimmed by the cell budget: nothing to tell.
                        continue
                    record = dc_replace(record, index=len(records))
                    records.append(record)
                    stats.candidates += 1
                    if record.error is not None:
                        stats.errors += 1
                    if not record.feasible:
                        stats.infeasible += 1
                    self._memo[key] = (record.score, record.feasible)
                    loss = self.objective.loss(
                        record.score, record.feasible
                    )
                    self.optimizer.tell(cand, loss)
                    if self.journal is not None and not record.replayed:
                        self.journal.put(key, self._entry(key, record))
                    if (
                        record.ok and record.feasible
                        and record.score is not None
                        and (
                            best is None
                            or self.objective.better(
                                record.score, best.score
                            )
                        )
                    ):
                        best = record

                if budget_hit:
                    stats.stopped = "max_cells"
                    break
        finally:
            if self.journal is not None:
                self.journal.close()
            if self._owned_runner:
                self.runner.close()
        return ExploreResult(
            space=self.space, objective=self.objective,
            best=best, records=records, stats=stats,
        )


def explore(
    space: SearchSpace,
    objective: Objective,
    optimizer: Optimizer | str = "random",
    seed: int = 0,
    **kwargs: Any,
) -> ExploreResult:
    """One-call exploration: build a driver, run it, return the result."""
    return ExploreDriver(
        space, objective, optimizer=optimizer, seed=seed, **kwargs
    ).run()
