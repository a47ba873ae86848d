"""The run pipeline: declarative scenarios -> runner -> cached cells.

This package is the execution spine of the experiment layer:

* :mod:`repro.run.scenario` — frozen :class:`Scenario` cell specs,
  :class:`MachineSpec`/:class:`PlacementSpec` declarative machine
  descriptions, and :func:`sweep` cartesian expansion;
* :mod:`repro.run.workloads` — the id -> cell-callable registry;
* :mod:`repro.run.runner` — the shared :class:`Runner` harness
  (sequential or process-pool parallel, per-cell error capture,
  deterministic result ordering);
* :mod:`repro.run.cache` — the content-addressed result cache keyed
  on (scenario hash, calibration fingerprint, package version).

``ExperimentSpec.run`` (:mod:`repro.core.registry`) rebuilds an
experiment's table from its :class:`RunRecord` rows.

Experiment modules declare *what* to run; everything about *how* —
batching, parallelism, memoization — lives here, so later distributed
backends slot in without touching the experiments again.
"""

from repro.run.cache import (
    ResultCache,
    calibration_fingerprint,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.run.runner import RunRecord, Runner, RunStats, default_runner, execute_scenario
from repro.run.scenario import MachineSpec, PlacementSpec, Scenario, scenario, sweep
from repro.run.workloads import list_workloads, resolve, workload

__all__ = [
    "MachineSpec",
    "PlacementSpec",
    "ResultCache",
    "RunRecord",
    "RunStats",
    "Runner",
    "Scenario",
    "calibration_fingerprint",
    "default_cache_dir",
    "default_runner",
    "execute_scenario",
    "resolve_cache_dir",
    "list_workloads",
    "resolve",
    "scenario",
    "sweep",
    "workload",
]
