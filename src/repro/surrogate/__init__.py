"""repro.surrogate — calibration behind the fidelity tiers.

A scenario submitted at ``fidelity="analytic"`` (or ``"hybrid"``) runs
the fast form its workload declares with
:func:`repro.run.workloads.workload` — the cell itself for an exact
passthrough, a modeled closed form otherwise — through the one
executor, :func:`repro.run.runner.execute_scenario`, in-process: no
pickling, no process pool.  This package holds what makes a modeled
form trustworthy:

* :mod:`~repro.surrogate.calibrate` — the error-measurement job, the
  persisted :class:`ErrorTable`, and the permit policy the Runner
  consults before it lets a fast form answer;
* :mod:`~repro.surrogate.models` — DES-matched closed forms shared
  by modeled fast forms.
"""

from repro.surrogate.calibrate import (
    DEFAULT_BOUND,
    ErrorTable,
    calibrate,
    default_error_table,
    family_of,
    relative_error,
)

__all__ = [
    "DEFAULT_BOUND",
    "ErrorTable",
    "calibrate",
    "default_error_table",
    "family_of",
    "relative_error",
]
