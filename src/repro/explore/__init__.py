"""Design-space exploration over the simulated machine.

The top layer of the stack: where :mod:`repro.run` answers "what does
*this* configuration do?" and :mod:`repro.serve` answers it under
load, :mod:`repro.explore` inverts the question — "which
machine/placement/fault configuration optimizes a metric?" — and
searches for the answer at analytic-tier throughput.

Four declarative pieces:

* :class:`SearchSpace` (:mod:`repro.explore.space`) — frozen,
  hashable dimensions over machine parameters, placement policies,
  workload parameters and fault specs;
* :class:`Objective` (:mod:`repro.explore.objective`) — which result
  column to optimize, with ``quantile=``/``repeats=`` replicate fans
  for variability-aware scoring;
* the optimizers (:mod:`repro.explore.optimizers`) — ``grid``,
  seeded ``random``, and an evolutionary ``evolve`` loop, all
  deterministic from one seed;
* :class:`ExploreDriver` (:mod:`repro.explore.driver`) — the loop
  that scores each round of candidates with one
  :meth:`~repro.run.runner.Runner.run` call, enforces cell/wall-clock
  budgets, and journals the trajectory to a resumable JSONL file.

Worked studies live in :mod:`repro.explore.studies`; the CLI verb is
``repro explore``; the end-to-end checks live in
``tests/test_explore.py``.
"""

from __future__ import annotations

from repro.explore.driver import (
    ExploreDriver,
    ExploreRecord,
    ExploreResult,
    ExploreStats,
    TrajectoryJournal,
    explore,
)
from repro.explore.objective import Objective, parse_objective
from repro.explore.optimizers import (
    EvolutionarySearch,
    GridSearch,
    Optimizer,
    RandomSearch,
    make_optimizer,
)
from repro.explore.space import (
    Dimension,
    SearchSpace,
    parse_space,
    search_space,
)
from repro.explore.studies import STUDIES, run_study, study_driver

__all__ = [
    "Dimension",
    "EvolutionarySearch",
    "ExploreDriver",
    "ExploreRecord",
    "ExploreResult",
    "ExploreStats",
    "GridSearch",
    "Objective",
    "Optimizer",
    "RandomSearch",
    "STUDIES",
    "SearchSpace",
    "TrajectoryJournal",
    "explore",
    "make_optimizer",
    "parse_objective",
    "parse_space",
    "run_study",
    "search_space",
    "study_driver",
]
