"""Fidelity calibration: measure surrogate error, persist the bound.

``repro calibrate --fidelity`` drives every registered experiment's
sweep cells through both the full path (``execute_scenario``) and the
surrogate (``evaluate_scenario``) and records, per workload *family*
and fidelity mode, the worst relative error observed.  The resulting
:class:`ErrorTable` is persisted as JSON keyed by the same
``version|calibration-fingerprint`` context the result cache uses —
retune any calibrated constant (or bump the version) and the table
goes stale, at which point the Runner stops trusting modeled
surrogates until recalibration (exact passthroughs need no table:
their rows are identical to the full path by construction, and the
calibration job *asserts* that instead of assuming it).

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


def relative_error(full_rows, fast_rows) -> float:
    """Worst column-wise relative error between two row sets.

    Rows are compared positionally; numeric entries contribute
    ``|fast - full| / max(|full|, floor)``; non-numeric entries must
    match exactly (mismatch — or a shape mismatch — is ``inf``).
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
                err = abs(sval - fval) / max(abs(fval), _ERR_FLOOR)
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
        """Load a table, or ``None`` if missing/corrupt.  A stale
        context still loads (``table.stale`` flags it) so callers can
        distinguish "never calibrated" from "needs recalibration"."""
        try:
            payload = json.loads(Path(path).read_text())
            entries = {}
            for family, modes in payload["families"].items():
                for mode, e in modes.items():
                    entries[(family, mode)] = FamilyError(
                        family=family, mode=mode,
                        rel_err=float(e["rel_err"]),
                        cells=int(e["cells"]),
                        exact=bool(e.get("exact", False)),
                    )
            return cls(
                context=str(payload["context"]),
                bound=float(payload["bound"]),
                entries=entries,
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None


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
    """Measure surrogate-vs-full error across every registered sweep.

    For each experiment cell whose workload has a surrogate, run the
    full path once and each requested fidelity mode once, and fold
    the relative error into the table per (family, mode).  Exact
    passthroughs *must* come back with error 0.0 — a non-zero error
    there means a workload claimed closed-form actually diverges, and
    calibration fails loudly rather than recording a lie.
    """
    from repro.core.registry import experiment_specs
    from repro.run.runner import execute_scenario
    from repro.surrogate.evaluator import evaluate_scenario
    from repro.surrogate.registry import resolve_surrogate

    table = ErrorTable(context=_current_context(), bound=bound)
    for spec in experiment_specs():
        for cell in spec.scenarios(fast=fast):
            surr = resolve_surrogate(cell.workload)
            if surr is None:
                continue
            full_rows = execute_scenario(cell)
            for mode in modes:
                if surr.fn is not None and mode not in surr.modes:
                    continue
                fast_rows = evaluate_scenario(replace(cell, fidelity=mode))
                err = relative_error(full_rows, fast_rows)
                if surr.exact and err != 0.0:
                    raise ConfigurationError(
                        f"{cell.describe()}: workload {cell.workload!r} "
                        f"is declared an exact passthrough but its "
                        f"{mode} rows diverge (rel. error {err:.3g})"
                    )
                for fam in _family_keys(surr.family, cell):
                    table.record(FamilyError(
                        family=fam, mode=mode, rel_err=err,
                        cells=1, exact=surr.exact,
                    ))
                if progress is not None:
                    progress(cell, mode, err)
    return table


def _family_keys(family: str, sc: Scenario) -> tuple[str, ...]:
    """Error-table keys for one cell: the workload family, plus a
    machine-qualified key (``family@config``) when the cell names a
    zoo machine.  A modeled surrogate calibrated against Columbia
    sweeps says nothing about its error on ``fat_numa``; per-machine
    entries keep the permit honest across the zoo."""
    config = None if sc.machine is None else sc.machine.config
    if config is None:
        return (family,)
    return (family, f"{family}@{config}")


def permit_scenario(
    sc: Scenario, table: ErrorTable | None
) -> tuple[bool, str]:
    """Policy decision for one non-``full`` cell: may the surrogate
    serve it?  Returns ``(permitted, reason)``; the reason explains a
    denial (used verbatim in refuse-mode error records).

    Exact passthroughs are always permitted.  Modeled surrogates need
    a fresh (non-stale) table entry for their family within bound.
    """
    from repro.surrogate.evaluator import surrogate_for
    from repro.surrogate.registry import SurrogateUnavailable

    try:
        surr = surrogate_for(sc)
    except SurrogateUnavailable as exc:
        return False, str(exc)
    if surr.exact:
        return True, ""
    if table is None:
        return False, (
            f"{sc.describe()}: no calibration table — run "
            f"'repro calibrate --fidelity' to enable the "
            f"{sc.fidelity} tier for {surr.family!r}"
        )
    if table.stale:
        return False, (
            f"{sc.describe()}: calibration table is stale (model "
            f"constants or version changed since it was written); "
            f"re-run 'repro calibrate --fidelity'"
        )
    config = None if sc.machine is None else sc.machine.config
    if config is not None:
        # Zoo machines need their own permit: a bound measured on
        # Columbia sweeps does not transfer to different hardware.
        key = f"{surr.family}@{config}"
        entry = table.lookup(key, sc.fidelity)
        if entry is None:
            return False, (
                f"{sc.describe()}: family {surr.family!r} has no "
                f"calibrated {sc.fidelity} entry for machine "
                f"{config!r} — modeled surrogates need per-machine "
                f"calibration (re-run 'repro calibrate --fidelity' "
                f"with a sweep on that machine)"
            )
    else:
        key = surr.family
        entry = table.lookup(key, sc.fidelity)
        if entry is None:
            return False, (
                f"{sc.describe()}: family {surr.family!r} has no "
                f"calibrated {sc.fidelity} error entry"
            )
    if entry.rel_err > table.bound:
        return False, (
            f"{sc.describe()}: calibrated {sc.fidelity} error "
            f"{entry.rel_err:.3g} for {key!r} exceeds "
            f"the bound {table.bound:g}"
        )
    return True, ""
