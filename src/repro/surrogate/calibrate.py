"""Fidelity calibration: measure fast-form error, persist the bound.

``repro calibrate --fidelity`` drives every registered experiment's
sweep cells whose workload declares a fast form
(:func:`repro.run.workloads.workload`) through
:func:`~repro.run.runner.execute_scenario` at ``full`` and at each
fast tier, and records, per workload *family* and fidelity mode, the
worst relative error observed.  The resulting :class:`ErrorTable` is
persisted as JSON keyed by the same ``version|calibration-fingerprint``
context the result cache uses — retune any calibrated constant (or
bump the version) and the table goes stale, at which point the Runner
stops trusting modeled fast forms until recalibration (exact
passthroughs need no table: their rows are identical to the full path
by construction, and the calibration job *asserts* that instead of
assuming it).

The committed default table lives next to this module
(``calibration.json``) so a fresh checkout serves analytic requests
out of the box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ConfigurationError
from repro.run.scenario import Scenario

__all__ = [
    "COMMITTED_TABLE",
    "DEFAULT_BOUND",
    "ErrorTable",
    "calibrate",
    "default_error_table",
    "family_of",
    "permit_scenario",
    "relative_error",
]

#: Default acceptable worst-case relative error for modeled
#: surrogates.  The ext_noise surrogate's residual against the DES is
#: contention/scheduling effects the closed form deliberately omits;
#: the measured table (committed) sits well inside this.
DEFAULT_BOUND = 0.5

#: The committed default error table, valid for a fresh checkout.
COMMITTED_TABLE = Path(__file__).with_name("calibration.json")

#: Denominator floor for relative error (absolute tolerance below it).
_ERR_FLOOR = 1e-9


def _current_context() -> str:
    from repro.run.cache import _package_version, calibration_fingerprint

    return f"{_package_version()}|{calibration_fingerprint()}"


def family_of(workload_id: str) -> str:
    """The calibration family of a workload id: the prefix before the
    first dot (``"fig9.cell"`` → ``"fig9"``) — the granularity the
    error table is keyed on."""
    return workload_id.split(".", 1)[0]


def relative_error(full_rows, fast_rows) -> float:
    """Worst column-wise relative error between two row sets.

    Rows are compared positionally; numeric entries contribute
    ``|fast - full| / max(|full|, floor)``, and equal values
    (infinities included) contribute 0.  A NaN on one side only is
    ``inf``; NaN on both sides counts as equal.  Non-numeric entries
    must match exactly (mismatch — or a shape mismatch — is ``inf``).
    """
    if len(full_rows) != len(fast_rows):
        return math.inf
    worst = 0.0
    for frow, srow in zip(full_rows, fast_rows):
        if len(frow) != len(srow):
            return math.inf
        for fval, sval in zip(frow, srow):
            numeric = isinstance(fval, (int, float)) and not isinstance(
                fval, bool
            )
            if numeric and isinstance(sval, (int, float)):
                if sval == fval or (sval != sval and fval != fval):
                    continue
                err = abs(sval - fval) / max(abs(fval), _ERR_FLOOR)
                if err != err:  # NaN on one side, or an infinite full value
                    return math.inf
                worst = max(worst, err)
            elif fval != sval:
                return math.inf
    return worst


@dataclass(frozen=True)
class FamilyError:
    """Worst observed error for one (family, mode) pair."""

    family: str
    mode: str
    rel_err: float
    cells: int
    exact: bool = False


class ErrorTable:
    """Per-family surrogate error, bound to a calibration context."""

    def __init__(
        self,
        context: str,
        bound: float = DEFAULT_BOUND,
        entries: dict[tuple[str, str], FamilyError] | None = None,
    ) -> None:
        self.context = context
        self.bound = bound
        self.entries = dict(entries or {})

    def record(self, entry: FamilyError) -> None:
        key = (entry.family, entry.mode)
        prior = self.entries.get(key)
        if prior is not None:
            entry = FamilyError(
                family=entry.family, mode=entry.mode,
                rel_err=max(prior.rel_err, entry.rel_err),
                cells=prior.cells + entry.cells,
                exact=prior.exact and entry.exact,
            )
        self.entries[key] = entry

    def lookup(self, family: str, mode: str) -> FamilyError | None:
        return self.entries.get((family, mode))

    def permits(self, family: str, mode: str) -> bool:
        """True iff this table vouches for (family, mode): measured,
        and the worst error observed is within the bound."""
        entry = self.entries.get((family, mode))
        return entry is not None and entry.rel_err <= self.bound

    @property
    def stale(self) -> bool:
        """True when the table was calibrated under a different
        version or calibration fingerprint than the running code."""
        return self.context != _current_context()

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> dict:
        families: dict[str, dict] = {}
        for (family, mode), e in sorted(self.entries.items()):
            families.setdefault(family, {})[mode] = {
                "rel_err": e.rel_err, "cells": e.cells, "exact": e.exact,
            }
        return {
            "calibration": 1,
            "context": self.context,
            "bound": self.bound,
            "families": families,
        }

    def save(self, path: str | Path = COMMITTED_TABLE) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path = COMMITTED_TABLE) -> "ErrorTable | None":
        """Load a table, or ``None`` if missing, unreadable or malformed
        (any entry included: an error or bound that is not a finite
        number ``>= 0``, a cell count that is not a count).  A stale
        context still loads (``table.stale`` flags it) so callers can
        distinguish "never calibrated" from "needs recalibration"."""
        try:
            payload = _object(json.loads(Path(path).read_text()))
            entries = {}
            for family, modes in _object(payload["families"]).items():
                for mode, e in _object(modes).items():
                    e = _object(e)
                    cells, exact = e["cells"], e.get("exact", False)
                    if type(cells) is not int or cells < 0:
                        raise ValueError(f"bad cell count {cells!r}")
                    if not isinstance(exact, bool):
                        raise ValueError(f"bad exact flag {exact!r}")
                    entries[(family, mode)] = FamilyError(
                        family=family, mode=mode,
                        rel_err=_error_value(e["rel_err"]),
                        cells=cells, exact=exact,
                    )
            context = payload["context"]
            if not isinstance(context, str):
                raise ValueError(f"bad context {context!r}")
            return cls(
                context=context,
                bound=_error_value(payload["bound"]),
                entries=entries,
            )
        except (
            OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError,
        ):
            return None


def _object(value) -> dict:
    """``value`` if it is a JSON object; anything else is malformed."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _error_value(value) -> float:
    """A relative error or bound as read from a table: a finite number
    ``>= 0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return float(value)


_default_table: ErrorTable | None = None
_default_loaded = False


def default_error_table() -> ErrorTable | None:
    """The committed error table, loaded once per process; ``None``
    when missing/corrupt.  Stale tables are returned as-is — the
    Runner checks ``.stale`` and treats them as absent."""
    global _default_table, _default_loaded
    if not _default_loaded:
        _default_loaded = True
        _default_table = ErrorTable.load()
    return _default_table


def calibrate(
    fast: bool = True,
    bound: float = DEFAULT_BOUND,
    modes: tuple[str, ...] = ("analytic", "hybrid"),
    progress=None,
) -> ErrorTable:
    """Measure fast-form-vs-full error across every registered sweep.

    For each experiment cell whose workload declares a fast form, run
    the full path once and each requested fidelity mode once, and fold
    the relative error into the table per (family, mode).  Exact
    passthroughs *must* come back with error 0.0 — a non-zero error
    there means a workload claimed closed-form actually diverges, and
    calibration fails loudly rather than recording a lie.
    """
    from repro.core.registry import experiment_specs
    from repro.run.runner import execute_scenario
    from repro.run.workloads import EXACT, fast_form

    table = ErrorTable(context=_current_context(), bound=bound)
    for spec in experiment_specs():
        for cell in spec.scenarios(fast=fast):
            form = fast_form(cell.workload)
            if form is None:
                continue
            exact = form == EXACT
            full_rows = execute_scenario(cell)
            for mode in modes:
                fast_rows = execute_scenario(replace(cell, fidelity=mode))
                err = relative_error(full_rows, fast_rows)
                if exact and err != 0.0:
                    raise ConfigurationError(
                        f"{cell.describe()}: workload {cell.workload!r} "
                        f"is declared an exact passthrough but its "
                        f"{mode} rows diverge (rel. error {err:.3g})"
                    )
                for fam in _family_keys(family_of(cell.workload), cell):
                    table.record(FamilyError(
                        family=fam, mode=mode, rel_err=err,
                        cells=1, exact=exact,
                    ))
                if progress is not None:
                    progress(cell, mode, err)
    return table


def _family_keys(family: str, sc: Scenario) -> tuple[str, ...]:
    """Error-table keys for one cell: the workload family, plus a
    machine-qualified key (``family@config``) when the cell names a
    zoo machine.  A modeled form calibrated against Columbia sweeps
    says nothing about its error on ``fat_numa``; per-machine entries
    keep the permit honest across the zoo."""
    config = None if sc.machine is None else sc.machine.config
    if config is None:
        return (family,)
    return (family, f"{family}@{config}")


def permit_scenario(
    sc: Scenario, table: ErrorTable | None
) -> tuple[bool, str]:
    """Policy decision for one non-``full`` cell: may its fast form
    serve it?  Returns ``(permitted, reason)``; the reason explains a
    denial (used verbatim in refuse-mode error records).

    Exact passthroughs are always permitted.  A modeled form needs a
    fresh (non-stale) table that :meth:`ErrorTable.permits` its
    family — on a zoo machine, its ``family@config`` entry.
    """
    from repro.run.workloads import EXACT, fast_form

    try:
        form = fast_form(sc.workload)
    except ConfigurationError as exc:
        return False, f"{sc.describe()}: {exc}"
    if form is None:
        return False, (
            f"{sc.describe()}: no surrogate declared for workload "
            f"{sc.workload!r}; only fidelity='full' can serve it"
        )
    if form == EXACT:
        return True, ""
    family = family_of(sc.workload)
    if table is None:
        return False, (
            f"{sc.describe()}: no calibration table — run "
            f"'repro calibrate --fidelity' to enable the "
            f"{sc.fidelity} tier for {family!r}"
        )
    if table.stale:
        return False, (
            f"{sc.describe()}: calibration table is stale (model "
            f"constants or version changed since it was written); "
            f"re-run 'repro calibrate --fidelity'"
        )
    # The most specific key: zoo machines need their own permit.
    key = _family_keys(family, sc)[-1]
    if table.permits(key, sc.fidelity):
        return True, ""
    entry = table.lookup(key, sc.fidelity)
    if entry is None:
        return False, (
            f"{sc.describe()}: no calibrated {sc.fidelity} error entry "
            f"for {key!r} (a zoo machine needs its own: re-run 'repro "
            f"calibrate --fidelity' with a sweep on that machine)"
        )
    return False, (
        f"{sc.describe()}: calibrated {sc.fidelity} error "
        f"{entry.rel_err:.3g} for {key!r} exceeds "
        f"the bound {table.bound:g}"
    )
