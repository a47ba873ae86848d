"""The supported public API, in one import.

Everything a consumer of the reproduction needs — building scenarios,
running them, registering experiments, injecting faults, tracing, and
talking to (or embedding) the scenario service — re-exported from one
place::

    from repro.api import Runner, run_experiment, sweep

This facade is the compatibility contract: the symbols in ``__all__``
and their signatures are snapshot-tested (``tests/test_api_surface.py``
against ``tests/golden/api_surface.txt``), so any change to the
surface is a deliberate, reviewed act.  Internal module layout under
:mod:`repro` may shift between PRs; imports written against
:mod:`repro.api` keep working.

The facade groups five seams:

* **scenarios & execution** — :class:`Scenario`, :func:`scenario`,
  :func:`sweep`, :class:`Runner`, :class:`RunRecord`,
  :func:`execute_scenario` (one cell, in-process, at its fidelity),
  :class:`ResultCache`, :func:`workload` (which also declares a
  workload's fast form), :class:`Fidelity` (the
  ``analytic``/``hybrid``/``full`` execution tiers; see also
  :func:`calibrate_fidelity` in the surrogate seam);
* **experiments** — :func:`run_experiment`, :func:`list_experiments`,
  :class:`ExperimentSpec`, :func:`experiment`,
  :func:`experiment_specs`, :class:`ExperimentResult`;
* **faults** — :class:`FaultSpec`, :func:`parse_faults`,
  :func:`use_faults`;
* **observability** — :class:`Tracer`, :func:`use_tracer`,
  :class:`CounterSet`;
* **serving** — :class:`ServeClient`, :class:`ServeResult`,
  :class:`ScenarioService` (the scheduler behind the TCP server),
  :class:`QuotaPolicy` (per-client token-bucket admission);
* **surrogate tier** — :func:`calibrate_fidelity` and
  :class:`ErrorTable` (the measured analytic-vs-DES error bound the
  Runner's escalate/refuse policy consults);
* **exploration** — :class:`SearchSpace`/:func:`search_space`,
  :class:`Objective`, :class:`ExploreDriver`/:func:`explore`,
  :class:`ExploreResult` and :func:`run_study` (design-space search
  over the simulated machine; ``repro explore`` on the CLI);
* **machine zoo** — :class:`MachineConfig` (declarative machine
  description), :func:`machine_config`/:func:`list_machines`/
  :func:`register_machine` (the registry), :func:`build_machine`,
  :func:`load_machine` (TOML/JSON files), :func:`cluster_cost` and
  :class:`AcceleratorSpec`; plus the cross-machine comparison
  (``repro compare`` on the CLI): :func:`run_compare`,
  :class:`CompareResult` and :func:`compare_scenarios`.
"""

from __future__ import annotations

from repro.compare import CompareResult, compare_scenarios, run_compare
from repro.core.experiment import ExperimentResult
from repro.explore import (
    ExploreDriver,
    ExploreResult,
    Objective,
    SearchSpace,
    explore,
    run_study,
    search_space,
)
from repro.core.registry import (
    ExperimentSpec,
    experiment,
    experiment_specs,
    list_experiments,
    resolve_experiment,
    run_experiment,
)
from repro.faults.context import use_faults
from repro.faults.spec import FaultSpec, parse_faults
from repro.machine.cluster import Cluster, columbia, multinode, single_node
from repro.machine.node import AcceleratorSpec, NodeType
from repro.machine.zoo import (
    MachineConfig,
    build_machine,
    cluster_cost,
    list_machines,
    load_machine,
    machine_config,
    register_machine,
)
from repro.machine.placement import Placement, PinningMode
from repro.obs.counters import CounterSet
from repro.obs.spans import Tracer, use_tracer
from repro.run.cache import ResultCache
from repro.run.runner import RunRecord, Runner, execute_scenario
from repro.run.scenario import (
    Fidelity,
    MachineSpec,
    PlacementSpec,
    Scenario,
    scenario,
    sweep,
)
from repro.run.workloads import workload
from repro.serve import (
    QuotaPolicy,
    ScenarioService,
    ServeClient,
    ServeReply,
    ServeResult,
)
from repro.surrogate import ErrorTable
from repro.surrogate import calibrate as calibrate_fidelity

__all__ = sorted(
    [
        "AcceleratorSpec",
        "Cluster",
        "CompareResult",
        "CounterSet",
        "ErrorTable",
        "ExperimentResult",
        "ExperimentSpec",
        "ExploreDriver",
        "ExploreResult",
        "FaultSpec",
        "Fidelity",
        "MachineConfig",
        "MachineSpec",
        "NodeType",
        "Objective",
        "Placement",
        "PinningMode",
        "PlacementSpec",
        "QuotaPolicy",
        "ResultCache",
        "RunRecord",
        "Runner",
        "Scenario",
        "ScenarioService",
        "SearchSpace",
        "ServeClient",
        "ServeReply",
        "ServeResult",
        "Tracer",
        "build_machine",
        "calibrate_fidelity",
        "cluster_cost",
        "columbia",
        "compare_scenarios",
        "execute_scenario",
        "experiment",
        "explore",
        "experiment_specs",
        "list_experiments",
        "list_machines",
        "load_machine",
        "machine_config",
        "multinode",
        "parse_faults",
        "register_machine",
        "resolve_experiment",
        "run_compare",
        "run_experiment",
        "run_study",
        "scenario",
        "search_space",
        "single_node",
        "sweep",
        "use_faults",
        "use_tracer",
        "workload",
    ]
)
