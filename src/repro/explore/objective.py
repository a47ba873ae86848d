"""Objectives: how a candidate's result rows become one score.

The "Variability Matters" methodology (PAPERS.md): a simulated
machine under jitter is a distribution, not a number, so an objective
can fan each candidate into ``repeats`` replicate cells — each the
candidate's scenario with a seeded :class:`~repro.faults.OsJitter`
overlay merged in (distinct seeds, so the cells cache-key and draw
independently) — and score a ``quantile`` of the replicate values
(p50 by default; p95 for tail-sensitive studies) instead of a mean.
Deterministic workloads degenerate gracefully: every replicate
returns the same value and every quantile equals it.

Scoring pipeline per candidate:

1. each replicate cell returns rows; ``reduce`` collapses the rows'
   ``metric`` column (index or, with result columns known, a name)
   to one float per replicate;
2. the ``quantile`` of the replicate values is the candidate's
   **score**;
3. optional constraint: a candidate whose ``constraint`` column
   (reduced and quantiled the same way) falls outside
   ``[constraint_min, constraint_max]`` is **infeasible** — reported,
   journaled, but never best;
4. the driver minimizes **loss** = score for ``mode="min"``,
   ``-score`` for ``mode="max"``; infeasible or failed candidates
   are ``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec, OsJitter
from repro.run.scenario import Scenario

__all__ = ["Objective", "parse_objective"]

_REDUCERS = ("last", "first", "min", "max", "mean", "sum")

#: Large odd multiplier separating replicate seed streams per
#: objective seed (same spirit as the fault injector's seed derivation).
_SEED_STRIDE = 1_000_003

#: Most replicate cells one candidate may fan into: replicas are built
#: as scenarios up front, and a larger count (a typo such as
#: ``repeats=1000000000``) would exhaust memory at explore time.
MAX_REPEATS = 10_000


def _reduce(values: Sequence[float], how: str) -> float:
    if how == "last":
        return values[-1]
    if how == "first":
        return values[0]
    if how == "min":
        return min(values)
    if how == "max":
        return max(values)
    if how == "sum":
        return float(sum(values))
    return float(sum(values)) / len(values)  # mean


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over a sorted copy (the serve tier's
    percentile convention — no interpolation, deterministic)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass(frozen=True)
class Objective:
    """What to optimize, over which column, under how much noise."""

    #: result-row column index the score reads.
    metric: int
    #: ``"min"`` or ``"max"``.
    mode: str = "min"
    #: row reducer within one cell (cells may return several rows).
    reduce: str = "last"
    #: quantile of the replicate values scored (nearest-rank).
    quantile: float = 0.5
    #: replicate cells per candidate.
    repeats: int = 1
    #: OS-jitter amplitude overlaid on every replicate (0 = none).
    noise: float = 0.0
    #: base seed the replicate overlays derive from.
    seed: int = 0
    #: optional feasibility column index (quantiled like the metric).
    constraint: int | None = None
    constraint_min: float | None = None
    constraint_max: float | None = None

    def __post_init__(self) -> None:
        if self.metric < 0:
            raise ConfigurationError(
                f"objective metric column must be >= 0, got {self.metric}"
            )
        if self.mode not in ("min", "max"):
            raise ConfigurationError(
                f"objective mode must be 'min' or 'max', got {self.mode!r}"
            )
        if self.reduce not in _REDUCERS:
            raise ConfigurationError(
                f"objective reduce must be one of {_REDUCERS}, "
                f"got {self.reduce!r}"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise ConfigurationError(
                f"objective quantile must be in [0, 1], got {self.quantile}"
            )
        if not 1 <= self.repeats <= MAX_REPEATS:
            raise ConfigurationError(
                f"objective repeats must be in 1..{MAX_REPEATS}, "
                f"got {self.repeats}"
            )
        if self.noise < 0.0:
            raise ConfigurationError(
                f"objective noise must be >= 0, got {self.noise}"
            )
        if self.constraint is None and (
            self.constraint_min is not None or self.constraint_max is not None
        ):
            raise ConfigurationError(
                "objective constraint bounds need a constraint column"
            )

    # -- replicate fan-out ----------------------------------------------------

    def replicas(self, sc: Scenario) -> tuple[Scenario, ...]:
        """The candidate's replicate cells, in replicate order.

        With ``repeats == 1`` and no noise the candidate *is* its one
        cell.  Otherwise replicate ``r`` merges a seeded overlay —
        jitter faults when ``noise > 0``, else just a distinct seed —
        so each replicate is a distinct cache key drawing a distinct
        fault stream, yet the whole fan is reproducible from
        ``objective.seed``.
        """
        if self.repeats == 1 and self.noise == 0.0:
            return (sc,)
        out = []
        extra = (OsJitter(amplitude=self.noise),) if self.noise > 0 else ()
        for r in range(self.repeats):
            # Nonzero by construction, so the merge's "other's seed
            # wins when set" rule always applies the replicate seed.
            rep_seed = self.seed * _SEED_STRIDE + r + 1
            overlay = FaultSpec(faults=extra, seed=rep_seed)
            merged = (
                overlay if sc.faults is None else sc.faults.merge(overlay)
            )
            out.append(replace(sc, faults=merged))
        return tuple(out)

    # -- scoring --------------------------------------------------------------

    def _column(self, rows: Sequence[Sequence[Any]], col: int) -> float:
        values = []
        for row in rows:
            if col >= len(row):
                raise ConfigurationError(
                    f"objective column {col} out of range for a "
                    f"{len(row)}-column row"
                )
            value = row[col]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(
                    f"objective column {col} holds non-numeric {value!r}"
                )
            values.append(float(value))
        if not values:
            raise ConfigurationError("objective: cell returned no rows")
        return _reduce(values, self.reduce)

    def metric_values(
        self, replicate_rows: Sequence[Sequence[Sequence[Any]]]
    ) -> tuple[float, ...]:
        """One reduced metric value per replicate (diagnostics)."""
        return tuple(
            self._column(rows, self.metric) for rows in replicate_rows
        )

    def score(
        self, replicate_rows: Sequence[Sequence[Sequence[Any]]]
    ) -> tuple[float, bool]:
        """``(score, feasible)`` from one candidate's replicate rows."""
        metric_values = self.metric_values(replicate_rows)
        score = _quantile(metric_values, self.quantile)
        feasible = True
        if self.constraint is not None:
            cons_values = [
                self._column(rows, self.constraint) for rows in replicate_rows
            ]
            cons = _quantile(cons_values, self.quantile)
            if self.constraint_max is not None and cons > self.constraint_max:
                feasible = False
            if self.constraint_min is not None and cons < self.constraint_min:
                feasible = False
        return score, feasible

    def loss(self, score: float | None, feasible: bool) -> float:
        """The minimized form: lower is always better."""
        if score is None or not feasible:
            return math.inf
        return score if self.mode == "min" else -score

    def better(self, a: float, b: float) -> bool:
        """Is score ``a`` strictly better than ``b`` under ``mode``?"""
        return a < b if self.mode == "min" else a > b

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-safe form (journal header)."""
        out: dict[str, Any] = {
            "metric": self.metric,
            "mode": self.mode,
            "reduce": self.reduce,
            "quantile": self.quantile,
            "repeats": self.repeats,
            "noise": self.noise,
            "seed": self.seed,
        }
        if self.constraint is not None:
            out["constraint"] = self.constraint
            if self.constraint_min is not None:
                out["constraint_min"] = self.constraint_min
            if self.constraint_max is not None:
                out["constraint_max"] = self.constraint_max
        return out


def parse_objective(text: str) -> Objective:
    """Parse an ``--objective`` string.

    Grammar (one clause list, ``--faults`` style): comma-separated
    ``key=value`` pairs; ``metric=N`` is required.  Examples::

        metric=3,mode=max
        metric=2,mode=min,quantile=0.95,repeats=9,noise=0.05,seed=1
        metric=4,constraint=3,constraint_max=1.05
    """
    kwargs: dict[str, Any] = {}
    for pair in filter(None, (p.strip() for p in text.split(","))):
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigurationError(
                f"--objective: expected key=value, got {pair!r}"
            )
        key = key.strip()
        value = value.strip()
        if key in ("metric", "repeats", "seed", "constraint"):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"--objective: {key} must be an integer, got {value!r}"
                ) from None
        elif key in ("quantile", "noise", "constraint_min", "constraint_max"):
            try:
                number = float(value)
                if not math.isfinite(number):
                    raise ValueError(value)
            except ValueError:
                raise ConfigurationError(
                    f"--objective: {key} must be a finite number, "
                    f"got {value!r}"
                ) from None
            kwargs[key] = number
        elif key in ("mode", "reduce"):
            kwargs[key] = value
        else:
            raise ConfigurationError(
                f"--objective: unknown key {key!r}"
            )
    if "metric" not in kwargs:
        raise ConfigurationError("--objective: metric=N is required")
    return Objective(**kwargs)
