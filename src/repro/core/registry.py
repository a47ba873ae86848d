"""The experiment registry: every table/figure by id.

Each experiment module declares itself with one :func:`experiment`
call: its id, paper anchor, short title, the result table's heading,
columns and notes, its scenario sweep factory and, for figures, the
default ``--format chart`` projection.  The declaration is a frozen
:class:`ExperimentSpec`, and ``spec.run(fast=, runner=)`` executes
the sweep and assembles the table — ``repro run``/``repro all``, the
suite report, calibration and the serve tests all consume specs; the
modules themselves only hold workload cells and sweeps.

The experiment modules are imported at the *bottom* of this module,
in the paper's presentation order: importing the registry populates
it, and iteration order everywhere (CLI listing, ``repro all``, the
suite report) is that curated order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.experiment import ExperimentResult
from repro.errors import ConfigurationError

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "experiment",
    "experiment_specs",
    "list_experiments",
    "resolve_experiment",
    "run_experiment",
]

#: ``(x, y, series_by, filters)`` column names of a figure's default
#: chart; ``filters`` is a tuple of ``(column, value)`` pairs.
Chart = tuple[str, str, str, tuple[tuple[str, Any], ...]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment, fully described.

    ``scenarios(fast=)`` yields the raw sweep cells for callers that
    drive the Runner or the serve layer directly; :meth:`run` executes
    them into the :class:`~repro.core.experiment.ExperimentResult`
    titled ``heading``.  ``title`` is the short form ``repro list``
    prints.
    """

    experiment_id: str
    title: str
    #: where in the paper this reproduces ("Fig. 9", "Table 4",
    #: "§4.1.1"), or "extension"/"ablation" for beyond-the-paper
    #: studies.
    anchor: str
    heading: str
    columns: tuple[str, ...]
    scenarios: Callable = field(repr=False, compare=False)
    notes: str = ""
    chart: Chart | None = None

    def __post_init__(self) -> None:
        if self.chart is not None:
            x, y, series_by, filters = self.chart
            named = (x, y, series_by, *(name for name, _ in filters))
            unknown = [c for c in named if c not in self.columns]
            if unknown:
                raise ConfigurationError(
                    f"{self.experiment_id}: chart names unknown columns "
                    f"{unknown}; have {self.columns}"
                )

    def run(self, fast: bool = False, runner=None) -> ExperimentResult:
        """Run the sweep's cells and assemble the result table.

        ``runner`` is an optional :class:`repro.run.Runner` controlling
        caching and parallelism; by default a shared sequential runner
        with an in-memory cell cache is used.  Failed cells do not
        abort the sweep: their rows are absent and a FAILED note naming
        each bad cell (with its error) is appended to the result, so a
        partial table still renders and the failure is visible in
        every output format.
        """
        from repro.run.runner import default_runner

        runner = runner if runner is not None else default_runner()
        records = runner.run(list(self.scenarios(fast=fast)))
        result = ExperimentResult(
            self.experiment_id, self.heading, self.columns, notes=self.notes
        )
        failures = []
        for record in records:
            if not record.ok:
                failures.append(f"{record.scenario.describe()}: {record.error}")
                continue
            for row in record.rows:
                result.add(*row)
        if failures:
            note = "FAILED cells:\n" + "\n".join(f"  {f}" for f in failures)
            result.notes = f"{result.notes}\n\n{note}" if result.notes else note
        return result


#: experiment id -> spec, in registration (= paper presentation) order.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _origin(fn: Callable) -> tuple[str, str]:
    return fn.__module__, fn.__qualname__


def experiment(
    experiment_id: str,
    *,
    title: str,
    anchor: str,
    heading: str,
    columns: tuple[str, ...],
    scenarios: Callable,
    notes: str = "",
    chart: Chart | None = None,
) -> ExperimentSpec:
    """Declare (and register) one experiment; returns its spec.

    Re-declaring the same experiment (module reimport) is a no-op;
    a *different* declaration under a taken id is a bug and raises.
    """
    spec = ExperimentSpec(
        experiment_id=experiment_id, title=title, anchor=anchor,
        heading=heading, columns=tuple(columns), scenarios=scenarios,
        notes=notes, chart=chart,
    )
    existing = EXPERIMENTS.get(experiment_id)
    if existing is None:
        EXPERIMENTS[experiment_id] = spec
        return spec
    if existing == spec and _origin(existing.scenarios) == _origin(scenarios):
        return existing
    raise ConfigurationError(
        f"experiment id {experiment_id!r} registered twice, with "
        f"different declarations: {existing!r} and {spec!r}"
    )


def resolve_experiment(experiment_id: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` for a registered experiment id.

    Unknown ids raise :class:`~repro.errors.ConfigurationError` with
    close-match suggestions — shared by ``run_experiment`` and the
    ``trace`` CLI verb so both complain identically.
    """
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        close = difflib.get_close_matches(
            experiment_id, EXPERIMENTS, n=3, cutoff=0.5
        )
        hint = (
            f"; did you mean {' or '.join(repr(c) for c in close)}?"
            if close
            else f"; known: {sorted(EXPERIMENTS)}"
        )
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}{hint}"
        ) from None


def run_experiment(
    experiment_id: str, fast: bool = False, runner=None
) -> ExperimentResult:
    """Run one registered experiment and return its result (see
    :meth:`ExperimentSpec.run`)."""
    return resolve_experiment(experiment_id).run(fast=fast, runner=runner)


def list_experiments() -> list[tuple[str, str]]:
    """(id, title) pairs for every registered experiment."""
    return [(spec.experiment_id, spec.title) for spec in EXPERIMENTS.values()]


def experiment_specs() -> list[ExperimentSpec]:
    """Every registered spec, in paper presentation order."""
    return list(EXPERIMENTS.values())


# Populate the registry.  Import order IS presentation order; these
# sit at the bottom because each module calls :func:`experiment` above.
from repro.core.experiments import (  # noqa: E402,F401
    table1,
    sec411_compute,
    fig5,
    fig6,
    table2,
    table3,
    sec42_stride,
    fig7,
    fig8,
    table4,
    fig9,
    fig10,
    fig11,
    table5,
    table6,
    ablations,
    ext_ins3d_multinode,
    ext_class_f,
    ext_noise,
)
