"""In-process evaluation of non-``full``-fidelity scenario cells.

:func:`evaluate_scenario` is the surrogate counterpart of
:func:`repro.run.runner.execute_scenario`: same fault-context
salting, same machine/placement materialization, same row
normalization — so a surrogate row is shape- and type-compatible
with a DES row and can share the ``ExperimentResult`` schema and
the cell cache.  It never pickles anything
and never touches a process pool: microseconds per cell, on the
caller's thread.
"""

from __future__ import annotations

from repro.run.scenario import Scenario
from repro.surrogate.registry import (
    SurrogateSpec,
    SurrogateUnavailable,
    resolve_surrogate,
)

__all__ = ["evaluate_scenario", "surrogate_for"]

#: Lazily bound ``repro.run.runner.execute_scenario`` (circular at
#: module load; a per-call import statement is measurable on a path
#: budgeted in single microseconds).
_execute_scenario = None


def surrogate_for(sc: Scenario) -> SurrogateSpec:
    """The surrogate spec serving ``sc`` at its fidelity, or raise.

    :class:`SurrogateUnavailable` means the cell *must* run full-DES
    — the Runner turns that into escalation or refusal per policy.
    """
    spec = resolve_surrogate(sc.workload)
    if spec is None:
        raise SurrogateUnavailable(
            f"{sc.describe()}: no surrogate declared for workload "
            f"{sc.workload!r}; only fidelity='full' can serve it"
        )
    if spec.fn is not None and sc.fidelity not in spec.modes:
        raise SurrogateUnavailable(
            f"{sc.describe()}: surrogate for {sc.workload!r} serves "
            f"{spec.modes}, not {sc.fidelity!r}"
        )
    return spec


def evaluate_scenario(sc: Scenario) -> tuple[tuple, ...]:
    """Evaluate one non-``full`` cell in-process; normalized rows.

    Exact passthroughs run the workload's own closed-form function —
    structurally identical to the full path (that *is* the exactness
    claim).  Modeled surrogates call their registered ``fn`` with the
    fidelity mode.  Either way the cell runs under its scenario's
    fault context, salted with the scenario key, exactly like
    ``execute_scenario`` — the analytic network model prices degraded
    paths through the same ambient injector.
    """
    spec = surrogate_for(sc)
    if spec.fn is None:
        # Exact passthrough: defer to the one canonical execution
        # path so machine building, fault salting and normalization
        # can never drift from the full tier.
        global _execute_scenario
        execute_scenario = _execute_scenario
        if execute_scenario is None:
            from repro.run.runner import execute_scenario

            _execute_scenario = execute_scenario
        return execute_scenario(sc)

    from repro.faults.context import use_faults
    from repro.run.runner import _normalize_rows

    kwargs = sc.kwargs()
    faults = sc.faults
    with use_faults(faults, salt=sc.key() if faults else ""):
        if sc.machine is not None:
            cluster = sc.machine.build()
            if sc.placement is not None:
                kwargs["placement"] = sc.placement.build(cluster)
            else:
                kwargs["cluster"] = cluster
        return _normalize_rows(sc, spec.fn(sc.fidelity, **kwargs))
