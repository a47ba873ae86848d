"""The workload registry: cell callables by stable id.

A :class:`~repro.run.scenario.Scenario` names its workload by string
id so scenarios stay pure data (hashable, picklable).  Experiment
modules register their cell functions at import time with the
:func:`workload` decorator; the runner resolves ids back to callables
— including inside ``ProcessPoolExecutor`` workers, where
:func:`resolve` lazily imports the experiment registry to repopulate
the table in a fresh interpreter.

A cell callable takes its scenario's parameters as keyword arguments
(plus ``cluster=``/``placement=`` when the scenario declares a
machine spec) and returns a list of row tuples of JSON-safe scalars.

The same decorator is the one place a workload declares its *fast
form*, the way the ``analytic`` and ``hybrid`` fidelity tiers
evaluate it (see :func:`workload`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["EXACT", "fast_form", "workload", "resolve", "list_workloads"]

#: The fast form of an exact passthrough: the non-``full`` tiers run
#: the cell function itself.
EXACT = "exact"

#: workload id -> (cell function, fast form or ``None``).
_WORKLOADS: dict[str, tuple[Callable, Callable | str | None]] = {}


def workload(
    workload_id: str, fast: Callable | str | None = None
) -> Callable[[Callable], Callable]:
    """Register a cell function under ``workload_id``.

    ``fast`` declares how the ``analytic`` and ``hybrid`` tiers
    evaluate the cell:

    * ``None`` (default) — no fast form: the runner escalates a
      non-``full`` request to the full path, or refuses it;
    * ``"exact"`` (:data:`EXACT`) — an exact passthrough: the tiers
      run the cell function itself, in-process, so the rows equal the
      full path's (``repro calibrate --fidelity`` checks that);
    * a callable ``fn(mode, **kwargs)`` — a modeled form, called with
      the tier (``"analytic"`` or ``"hybrid"``) and the cell's keyword
      arguments, returning rows in the cell's own schema; its error
      against the full path is calibrated per family.

    Re-registering the same id with the same function is a no-op (the
    module was simply re-imported); a different function is an error —
    two cells silently sharing an id would poison the result cache.
    """
    if fast is not None and fast != EXACT and not callable(fast):
        raise ConfigurationError(
            f"workload {workload_id!r}: fast must be None, {EXACT!r} "
            f"or a callable fn(mode, **kwargs), got {fast!r}"
        )

    def register(fn: Callable) -> Callable:
        existing = _WORKLOADS.get(workload_id)
        if existing is not None and existing[0].__qualname__ != fn.__qualname__:
            raise ConfigurationError(
                f"workload id {workload_id!r} already registered "
                f"to {existing[0].__qualname__}"
            )
        _WORKLOADS[workload_id] = (fn, fast)
        return fn

    return register


def _entry(workload_id: str) -> tuple[Callable, Callable | str | None]:
    """``(cell function, fast form)`` for ``workload_id``.

    On a miss, imports :mod:`repro.core.registry` (which imports every
    experiment module, populating the table) and retries — this is
    what makes scenarios executable in worker processes that have not
    imported the experiment layer yet.
    """
    entry = _WORKLOADS.get(workload_id)
    if entry is None:
        import repro.core.registry  # noqa: F401  (import side effect)

        entry = _WORKLOADS.get(workload_id)
    if entry is None and workload_id.startswith("explore."):
        import repro.explore.studies  # noqa: F401  (import side effect)

        entry = _WORKLOADS.get(workload_id)
    if entry is None and workload_id.startswith("compare."):
        import repro.compare  # noqa: F401  (import side effect)

        entry = _WORKLOADS.get(workload_id)
    if entry is None:
        raise ConfigurationError(
            f"unknown workload {workload_id!r}; "
            f"known: {sorted(_WORKLOADS)}"
        )
    return entry


def resolve(workload_id: str) -> Callable:
    """The cell function for ``workload_id``."""
    return _entry(workload_id)[0]


def fast_form(workload_id: str) -> Callable | str | None:
    """The fast form ``workload_id`` declared: :data:`EXACT`, a
    modeled ``fn(mode, **kwargs)``, or ``None`` (full only)."""
    return _entry(workload_id)[1]


def list_workloads() -> list[str]:
    """All registered workload ids."""
    return sorted(_WORKLOADS)
