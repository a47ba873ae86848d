"""The experiment registry: every table/figure by id.

Each experiment registers itself with the :func:`experiment`
decorator, which wraps the module's ``run(fast=, runner=)`` entry
point in a frozen :class:`ExperimentSpec` carrying the things every
consumer used to fish out of module attributes: the paper anchor, the
human title, the scenario sweep factory and the default fault
overlay.  ``repro run``/``repro trace``, the suite report and the
serve tests all consume the spec — the modules themselves are
an implementation detail.

The experiment modules are imported at the *bottom* of this module,
in the paper's presentation order: importing the registry populates
it, and iteration order everywhere (CLI listing, ``repro all``, the
suite report) is that curated order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable

from repro.core.experiment import ExperimentResult
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "experiment",
    "experiment_specs",
    "list_experiments",
    "resolve_experiment",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment, fully described.

    ``run(fast=, runner=)`` produces the
    :class:`~repro.core.experiment.ExperimentResult`; ``scenarios``
    (``fast=`` keyword) yields the raw sweep cells for callers that
    drive the Runner or the serve layer directly.  ``faults`` is the
    default fault overlay the sweep bakes in (informational — the
    factory applies it itself), shown by ``repro list``.
    """

    experiment_id: str
    title: str
    #: where in the paper this reproduces ("Fig. 9", "Table 4",
    #: "§4.1.1"), or "extension" for beyond-the-paper studies.
    anchor: str
    run: Callable[..., ExperimentResult] = field(repr=False, compare=False)
    scenarios: Callable | None = field(
        default=None, repr=False, compare=False
    )
    faults: FaultSpec | None = None


#: experiment id -> spec, in registration (= paper presentation) order.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def experiment(
    experiment_id: str,
    title: str,
    anchor: str,
    scenarios: Callable | None = None,
    faults: FaultSpec | None = None,
) -> Callable:
    """Register the decorated ``run`` function as an experiment.

    Re-decorating the same function (module reimport) is a no-op;
    two *different* functions claiming one id is a bug and raises.
    """

    def register(run_fn: Callable[..., ExperimentResult]) -> Callable:
        existing = EXPERIMENTS.get(experiment_id)
        if existing is not None:
            # Qualname alone is useless here — nearly every experiment
            # entry point is a module-level ``run``; the module must
            # match too for this to be a re-import no-op.
            if (existing.run.__module__, existing.run.__qualname__) == (
                run_fn.__module__, run_fn.__qualname__
            ):
                return run_fn
            raise ConfigurationError(
                f"experiment id {experiment_id!r} registered twice: "
                f"{existing.run.__module__}.{existing.run.__qualname__} "
                f"and {run_fn.__module__}.{run_fn.__qualname__}"
            )
        EXPERIMENTS[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            anchor=anchor,
            run=run_fn,
            scenarios=scenarios,
            faults=faults,
        )
        return run_fn

    return register


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
    """Run one registered experiment and return its result.

    ``runner`` is an optional :class:`repro.run.Runner` controlling
    caching and parallelism; by default a shared sequential runner
    with an in-memory cell cache is used.
    """
    return resolve_experiment(experiment_id).run(fast=fast, runner=runner)


def list_experiments() -> list[tuple[str, str]]:
    """(id, title) pairs for every registered experiment."""
    return [(spec.experiment_id, spec.title) for spec in EXPERIMENTS.values()]


def experiment_specs() -> list[ExperimentSpec]:
    """Every registered spec, in paper presentation order."""
    return list(EXPERIMENTS.values())


# Populate the registry.  Import order IS presentation order; these
# sit at the bottom because each module imports the decorator above.
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
