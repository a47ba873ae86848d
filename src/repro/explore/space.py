"""Declarative design spaces over the simulated machine.

A :class:`SearchSpace` is the explore tier's counterpart of a sweep
declaration: a workload id plus an ordered tuple of
:class:`Dimension`\\ s, each naming one knob and the finite set of
values it may take.  Like a :class:`~repro.run.scenario.Scenario`, a
space is frozen, hashable pure data — it can be content-hashed into a
trajectory journal header, pickled, and compared.

Dimension names route by prefix, mirroring how :func:`repro.run.sweep`
splits machine/placement/parameter concerns:

* ``machine.<field>``   — a :class:`~repro.run.scenario.MachineSpec`
  field (``clock_ghz``, ``l3_mb``, ``n_nodes``, ``fabric``, ...);
* ``placement.<field>`` — a :class:`~repro.run.scenario.PlacementSpec`
  field (``n_ranks``, ``threads_per_rank``, ``pinned``, ...);
* ``faults``            — whole :class:`~repro.faults.FaultSpec`
  alternatives (values are fault specs, or ``--faults``-grammar
  strings, or ``None`` for a healthy machine);
* anything else         — a workload parameter, passed straight to
  the cell function.

A *candidate* is one index per dimension (a ``tuple[int, ...]``) —
the optimizer currency.  :meth:`SearchSpace.scenario_for` materializes
a candidate into a Scenario through the same
:func:`repro.run.scenario.scenario` constructor every other tier uses,
so candidate cells hash, cache, fault-overlay and fidelity-dispatch
exactly like hand-declared ones.

The CLI grammar (:func:`parse_space`) reuses the ``--faults`` style:
semicolon-separated ``name=...`` clauses, each either an explicit
value list (``machine.l3_mb=6,9,12``) or a ``lo:hi:n`` linear range
(``machine.clock_ghz=1.3:1.9:4``).  The faults dimension separates
alternatives with ``|`` and joins clauses *within* one alternative
with ``+`` (``;`` and ``,`` already mean something): e.g.
``faults=none|boot_cpuset|degrade:latency_factor=4+boot_cpuset``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec, format_faults, parse_faults
from repro.run.scenario import (
    Fidelity,
    MachineSpec,
    PlacementSpec,
    Scenario,
    canonical_value,
    scenario,
)

__all__ = [
    "Dimension",
    "SearchSpace",
    "parse_space",
    "search_space",
]

#: Legal MachineSpec / PlacementSpec field names, for loud validation
#: at space declaration time instead of deep inside a candidate build.
_MACHINE_FIELDS = tuple(f.name for f in dc_fields(MachineSpec))
_PLACEMENT_FIELDS = tuple(f.name for f in dc_fields(PlacementSpec))

#: Most values one ``lo:hi:n`` range may expand to: a design-space
#: dimension is a hand-sized list, and a larger count (a typo such as
#: ``x=1:2:100000000000``) would hang the parser building it.
MAX_RANGE_COUNT = 10_000


def _as_fault_value(value: Any, name: str) -> FaultSpec | None:
    """Canonicalize one faults-dimension value: FaultSpec, a
    ``--faults`` grammar string, or None (healthy)."""
    if value is None or isinstance(value, FaultSpec):
        return value
    if isinstance(value, str):
        if value in ("", "none", "None"):
            return None
        return parse_faults(value)
    raise ConfigurationError(
        f"space dimension {name!r}: fault values must be FaultSpec "
        f"instances, --faults strings, or None; got {value!r}"
    )


@dataclass(frozen=True)
class Dimension:
    """One knob of a search space: a name and its finite value set."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("space dimension needs a name")
        values = tuple(self.values)
        if not values:
            raise ConfigurationError(
                f"space dimension {self.name!r} has no values"
            )
        if self.name == "faults":
            values = tuple(
                _as_fault_value(v, self.name) for v in values
            )
        else:
            values = tuple(
                canonical_value(v, f"space dimension {self.name}=")
                for v in values
            )
        object.__setattr__(self, "values", values)

    def payload_values(self) -> list[Any]:
        """JSON-safe value forms (fault specs as ``--faults`` strings)."""
        if self.name != "faults":
            return list(self.values)
        return [
            "none" if v is None else format_faults(v) for v in self.values
        ]


@dataclass(frozen=True)
class SearchSpace:
    """A workload id plus the dimensions a candidate may vary.

    ``base`` holds fixed ``(name, value)`` pairs every candidate
    shares (routed by the same prefixes as dimensions); ``fidelity``
    is the tier every candidate cell runs at — ``analytic`` by
    default, because exploration lives on the surrogate fast path and
    promotes finalists explicitly.
    """

    workload: str
    dimensions: tuple[Dimension, ...]
    base: tuple[tuple[str, Any], ...] = ()
    fidelity: str = Fidelity.ANALYTIC.value

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ConfigurationError("a search space needs >= 1 dimension")
        seen: set[str] = set()
        for dim in self.dimensions:
            if dim.name in seen:
                raise ConfigurationError(
                    f"duplicate space dimension {dim.name!r}"
                )
            seen.add(dim.name)
            self._check_route(dim.name)
        for name, _ in self.base:
            if name in seen:
                raise ConfigurationError(
                    f"base value {name!r} shadows a dimension"
                )
            self._check_route(name)
        if isinstance(self.fidelity, Fidelity):
            object.__setattr__(self, "fidelity", self.fidelity.value)

    @staticmethod
    def _check_route(name: str) -> None:
        if name.startswith("machine."):
            field = name[len("machine."):]
            if field not in _MACHINE_FIELDS:
                raise ConfigurationError(
                    f"unknown machine spec field {field!r}; "
                    f"expected one of {_MACHINE_FIELDS}"
                )
        elif name.startswith("placement."):
            field = name[len("placement."):]
            if field not in _PLACEMENT_FIELDS:
                raise ConfigurationError(
                    f"unknown placement spec field {field!r}; "
                    f"expected one of {_PLACEMENT_FIELDS}"
                )

    # -- geometry -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(d.values) for d in self.dimensions)

    @property
    def size(self) -> int:
        """Total number of candidates (the full grid)."""
        n = 1
        for d in self.dimensions:
            n *= len(d.values)
        return n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def candidates(self) -> Iterable[tuple[int, ...]]:
        """Every candidate in grid order (first dimension outermost),
        matching :func:`repro.run.sweep`'s expansion order."""
        return itertools.product(*(range(n) for n in self.shape))

    def check_candidate(self, candidate: tuple[int, ...]) -> None:
        if len(candidate) != len(self.dimensions):
            raise ConfigurationError(
                f"candidate {candidate!r} has {len(candidate)} indices "
                f"for {len(self.dimensions)} dimensions"
            )
        for i, (idx, dim) in enumerate(zip(candidate, self.dimensions)):
            if not 0 <= idx < len(dim.values):
                raise ConfigurationError(
                    f"candidate index {idx} out of range for "
                    f"dimension {i} ({dim.name!r}, {len(dim.values)} values)"
                )

    # -- materialization ------------------------------------------------------

    def assignment(self, candidate: tuple[int, ...]) -> tuple[tuple[str, Any], ...]:
        """``(name, value)`` pairs for one candidate, dimension order
        (fault specs rendered as ``--faults`` strings so the pairs are
        JSON-safe — the journal/report form)."""
        self.check_candidate(candidate)
        out = []
        for idx, dim in zip(candidate, self.dimensions):
            value = dim.values[idx]
            if dim.name == "faults":
                value = "none" if value is None else format_faults(value)
            out.append((dim.name, value))
        return tuple(out)

    def scenario_for(self, candidate: tuple[int, ...]) -> Scenario:
        """Materialize one candidate into a Scenario."""
        self.check_candidate(candidate)
        machine: dict[str, Any] = {}
        placement: dict[str, Any] = {}
        params: dict[str, Any] = {}
        faults: FaultSpec | None = None
        pairs = list(self.base) + [
            (dim.name, dim.values[idx])
            for idx, dim in zip(candidate, self.dimensions)
        ]
        for name, value in pairs:
            if name == "faults":
                faults = _as_fault_value(value, name)
            elif name.startswith("machine."):
                machine[name[len("machine."):]] = value
            elif name.startswith("placement."):
                placement[name[len("placement."):]] = value
            else:
                params[name] = value
        if machine:
            # A "machine.config" dim routes to the zoo form; pure
            # legacy dims (clock/l3/...) keep their historic cache
            # keys via the sanctioned legacy constructor.
            if "config" in machine:
                mspec = MachineSpec(**machine)
            else:
                mspec = MachineSpec.legacy(**machine)
        else:
            mspec = None
        pspec = PlacementSpec(**placement) if placement else None
        if pspec is not None and mspec is None:
            mspec = MachineSpec.legacy()
        return scenario(
            self.workload, machine=mspec, placement=pspec,
            faults=faults, fidelity=self.fidelity, **params,
        )

    # -- identity -------------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-safe form (journal header, content hash)."""
        return {
            "workload": self.workload,
            "fidelity": self.fidelity,
            "base": [[k, v] for k, v in _payload_base(self.base)],
            "dimensions": [
                {"name": d.name, "values": d.payload_values()}
                for d in self.dimensions
            ],
        }

    def key(self) -> str:
        """Stable content hash of this space (hex digest)."""
        blob = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        dims = " x ".join(
            f"{d.name}[{len(d.values)}]" for d in self.dimensions
        )
        return f"{self.workload}: {dims} = {self.size} candidates"


def _payload_base(base: tuple[tuple[str, Any], ...]):
    for name, value in base:
        if name == "faults" and isinstance(value, FaultSpec):
            value = format_faults(value)
        yield name, value


def search_space(
    workload: str,
    dims: Mapping[str, Iterable[Any]],
    base: Mapping[str, Any] | None = None,
    fidelity: str | Fidelity = Fidelity.ANALYTIC,
) -> SearchSpace:
    """Build a :class:`SearchSpace` from a dict of dimensions, the
    ergonomic counterpart of :func:`repro.run.sweep`'s ``axes``."""
    return SearchSpace(
        workload=workload,
        dimensions=tuple(
            Dimension(name, tuple(values)) for name, values in dims.items()
        ),
        base=tuple(sorted((base or {}).items())),
        fidelity=fidelity,
    )


# -- the --space mini-language ------------------------------------------------


def _parse_scalar(text: str) -> Any:
    """One grammar value: bool, None, int, finite float, or string.

    A float spelling that is not finite (``nan``, ``inf``, ``1e309``)
    is rejected: a NaN value never equals itself, so a space holding
    one could not be matched or de-duplicated.
    """
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if text in ("none", "None"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return text
    if not math.isfinite(number):
        raise ConfigurationError(f"value {text!r} is not finite")
    return number


def _parse_range(text: str, name: str) -> list[Any] | None:
    """``lo:hi:n`` linear range, or None when the clause isn't one.
    Integral endpoints with integral steps yield ints (so
    ``l3_mb=6:12:3`` gives ``6, 9, 12``, not floats).  Endpoints and
    step must be finite, and ``n`` at most :data:`MAX_RANGE_COUNT`."""
    parts = text.split(":")
    if len(parts) != 3:
        return None
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        return None
    if not 1 <= n <= MAX_RANGE_COUNT:
        raise ConfigurationError(
            f"space dimension {name!r}: range count must be in "
            f"1..{MAX_RANGE_COUNT}, got {n}"
        )
    step = (hi - lo) / (n - 1) if n > 1 else 0.0
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ConfigurationError(
            f"space dimension {name!r}: range {text!r} is not finite"
        )
    values = [lo] if n == 1 else [round(lo + i * step, 10) for i in range(n)]
    out = []
    for v in values:
        out.append(int(v) if float(v).is_integer() else v)
    return out


def _parse_fault_values(text: str) -> list[FaultSpec | None]:
    """Faults-dimension alternatives: ``|``-separated specs, ``+``
    joining clauses within one spec, ``none`` for a healthy machine."""
    values: list[FaultSpec | None] = []
    for alt in text.split("|"):
        alt = alt.strip()
        if alt in ("", "none", "None"):
            values.append(None)
        else:
            values.append(parse_faults(alt.replace("+", ";")))
    return values


def parse_space(
    text: str,
    workload: str,
    base: Mapping[str, Any] | None = None,
    fidelity: str | Fidelity = Fidelity.ANALYTIC,
) -> SearchSpace:
    """Parse a ``--space`` string into a :class:`SearchSpace`.

    Grammar: semicolon-separated dimensions, each
    ``name=v1,v2,...`` (explicit values) or ``name=lo:hi:n`` (linear
    range, inclusive endpoints).  The ``faults`` dimension separates
    alternatives with ``|`` and joins fault clauses within one
    alternative with ``+``.  Examples::

        machine.clock_ghz=1.3:1.9:4; machine.l3_mb=3,6,9,12
        placement.n_ranks=64,128,256; placement.threads_per_rank=1,2,4
        cpus=64; faults=none|boot_cpuset|degrade:latency_factor=4+seed=3
    """
    dims: list[Dimension] = []
    for clause in filter(None, (c.strip() for c in text.split(";"))):
        name, eq, valuetext = clause.partition("=")
        name = name.strip()
        valuetext = valuetext.strip()
        if not eq or not valuetext:
            raise ConfigurationError(
                f"--space: expected name=values in {clause!r}"
            )
        if name == "faults":
            values: list[Any] = _parse_fault_values(valuetext)
        else:
            ranged = _parse_range(valuetext, name)
            values = (
                ranged if ranged is not None
                else [_parse_scalar(v.strip()) for v in valuetext.split(",")]
            )
        dims.append(Dimension(name, tuple(values)))
    if not dims:
        raise ConfigurationError("--space: no dimensions given")
    return SearchSpace(
        workload=workload,
        dimensions=tuple(dims),
        base=tuple(sorted((base or {}).items())),
        fidelity=fidelity,
    )
