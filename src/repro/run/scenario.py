"""Declarative scenario specs: *what* to run, separated from *how*.

A :class:`Scenario` is a frozen, hashable, picklable description of
one experiment cell: a registered workload callable (by id) plus its
parameters, and optionally a declarative machine/placement spec that
the runner materializes before the cell executes.  Because a scenario
is pure data, it can be

* content-hashed (:meth:`Scenario.key`) for the result cache,
* pickled to a ``ProcessPoolExecutor`` worker, and
* expanded from cartesian grids with :func:`sweep` instead of
  hand-rolled nested loops.

Parameter values must be JSON-representable scalars (str, int, float,
bool, None) or tuples thereof — the same restriction the cache's
on-disk format needs, enforced at construction so a bad scenario
fails loudly at declaration time, not at cache-write time.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec

__all__ = [
    "Fidelity",
    "MachineSpec",
    "PlacementSpec",
    "Scenario",
    "canonical_value",
    "scenario",
    "sweep",
]


class Fidelity(str, enum.Enum):
    """Execution tier of a scenario cell.

    * ``FULL`` — the default: the workload runs exactly as it always
      has (discrete-event simulation where the workload uses it).
    * ``HYBRID`` — the analytic network model prices communication
      while compute terms are still *executed* (noise draws, timing
      loops) — the predict-then-correct middle tier.
    * ``ANALYTIC`` — pure closed-form evaluation, the fast form the
      workload declares (:func:`repro.run.workloads.workload`):
      microseconds per cell, calibrated error bound
      (:mod:`repro.surrogate`), never touches a worker process.

    Values are plain strings (``"analytic"``/``"hybrid"``/``"full"``)
    so they serialize to JSON and the wire protocol unchanged.
    """

    ANALYTIC = "analytic"
    HYBRID = "hybrid"
    FULL = "full"


#: Fidelity values a scenario may carry, in escalation order.
_FIDELITIES = tuple(f.value for f in Fidelity)

#: Scalar types a scenario parameter (and a cached row value) may hold.
SCALARS = (str, int, float, bool, type(None))


def canonical_value(value: Any, what: str = "value ") -> Any:
    """Canonicalize to the one normal form scenarios and cached rows
    share: scalars pass through, sequences become (nested) tuples.

    Both the scenario constructor and every cache read/write funnel
    through this, so a value compares equal no matter which side of a
    JSON round-trip it is on (JSON turns tuples into lists; this turns
    them back).
    """
    if isinstance(value, SCALARS):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(canonical_value(v, what) for v in value)
    raise ConfigurationError(
        f"{what}{value!r} is not a JSON-safe scalar "
        f"(allowed: str/int/float/bool/None and tuples of them)"
    )


def _check_value(name: str, value: Any) -> Any:
    """Validate one parameter value (scalars or tuples of scalars)."""
    return canonical_value(value, f"scenario parameter {name}=")


#: Set while :meth:`MachineSpec.legacy` constructs, so internal
#: callers (sweeps, the wire decoder, explore) can use the old field
#: form without tripping the deprecation warning meant for user code.
_LEGACY_SANCTIONED = threading.local()

_DEPRECATION_NOTE = (
    "constructing MachineSpec from the legacy "
    "single_node/multinode/custom_bx2 fields is deprecated; its "
    "removal is deferred until the end-to-end benchmark golden is "
    "re-keyed to config-form cache keys; name a machine-zoo config "
    "instead, e.g. MachineSpec(config='columbia') — see docs/api.md"
)


@dataclass(frozen=True)
class MachineSpec:
    """A declarative cluster description the runner can build.

    Two forms:

    * **config form** (current): ``config`` names a registered
      :class:`~repro.machine.zoo.MachineConfig`, optionally perturbed
      by ``overrides`` — sorted ``(dotted_path, value)`` pairs passed
      to :meth:`~repro.machine.zoo.MachineConfig.with_overrides`.
      Any machine in the zoo joins the cache-key / wire-protocol /
      explore surfaces with no new code.
    * **legacy form** (deprecated; removal deferred until the
      end-to-end benchmark golden is re-keyed): the seven
      Columbia builder fields mirroring ``single_node`` /
      ``multinode`` / ``custom_bx2``.  Constructing this form warns;
      internal callers use :meth:`legacy`.  Cache keys for the legacy
      form are byte-identical to every build since the scenario layer
      existed (:meth:`payload`).
    """

    node_type: str = "BX2b"
    n_nodes: int = 1
    n_cpus: int = 512
    fabric: str = "numalink4"
    mpt: str = "mpt1.11b"
    clock_ghz: float | None = None
    l3_mb: int | None = None
    config: str | None = None
    overrides: tuple[tuple[str, Any], ...] = ()

    #: The legacy fields and their defaults — a config-form spec must
    #: leave all of them untouched.
    _LEGACY_FIELDS = (
        ("node_type", "BX2b"), ("n_nodes", 1), ("n_cpus", 512),
        ("fabric", "numalink4"), ("mpt", "mpt1.11b"),
        ("clock_ghz", None), ("l3_mb", None),
    )

    def __post_init__(self) -> None:
        if self.overrides:
            raw = self.overrides
            items = raw.items() if isinstance(raw, Mapping) else raw
            pairs = tuple(sorted(
                (str(k), canonical_value(v, f"machine override {k}="))
                for k, v in items
            ))
            object.__setattr__(self, "overrides", pairs)
        elif not isinstance(self.overrides, tuple):
            object.__setattr__(self, "overrides", ())
        if self.config is not None:
            dirty = [
                name for name, default in self._LEGACY_FIELDS
                if getattr(self, name) != default
            ]
            if dirty:
                raise ConfigurationError(
                    f"MachineSpec(config={self.config!r}) cannot also set "
                    f"legacy builder fields {dirty}; use overrides=(...) "
                    f"to perturb the config"
                )
        else:
            if self.overrides:
                raise ConfigurationError(
                    "MachineSpec overrides require a config name"
                )
            if not getattr(_LEGACY_SANCTIONED, "on", False):
                warnings.warn(_DEPRECATION_NOTE, DeprecationWarning,
                              stacklevel=3)

    @classmethod
    def legacy(cls, **fields: Any) -> "MachineSpec":
        """Construct the legacy (Columbia-builder) form without the
        deprecation warning — for internal callers that must keep
        producing byte-identical cache keys until the legacy form is
        removed."""
        prev = getattr(_LEGACY_SANCTIONED, "on", False)
        _LEGACY_SANCTIONED.on = True
        try:
            return cls(**fields)
        finally:
            _LEGACY_SANCTIONED.on = prev

    def payload(self) -> dict[str, Any]:
        """The cache-key / wire form of this spec.

        Legacy specs serialize as exactly the seven builder fields —
        the same dict ``vars(spec)`` produced before the config form
        existed, so every Columbia cache key and wire message is
        byte-identical across the redesign.  Config specs serialize as
        ``{"config": name}`` plus ``overrides`` only when present.
        """
        if self.config is None:
            return {name: getattr(self, name)
                    for name, _ in self._LEGACY_FIELDS}
        out: dict[str, Any] = {"config": self.config}
        if self.overrides:
            out["overrides"] = [[k, v] for k, v in self.overrides]
        # The registry entry's *content* digest: editing a preset must
        # change cache keys, or stale rows would be served under the
        # unchanged name.  (Ignored by the wire decoder — each side
        # keys against its own registry's truth.)
        from repro.machine.zoo import machine_config

        blob = json.dumps(
            machine_config(self.config).to_dict(),
            sort_keys=True, separators=(",", ":"),
        )
        out["zoo"] = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return out

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "MachineSpec":
        """Inverse of :meth:`payload` (wire decode, no warnings)."""
        if "config" in data:
            overrides = tuple(
                (k, v) for k, v in data.get("overrides", ())
            )
            # "zoo" (the sender's registry digest) is advisory: the
            # receiver keys against its own registry.
            return cls(config=data["config"], overrides=overrides)
        return cls.legacy(**data)

    def build(self):
        """Materialize the :class:`~repro.machine.cluster.Cluster`."""
        if self.config is not None:
            from repro.machine.zoo import build_machine

            return build_machine(self.config, self.overrides)
        from repro.machine.cluster import custom_bx2, multinode, single_node
        from repro.machine.infiniband import MPTVersion
        from repro.machine.node import NodeType

        if (self.clock_ghz is None) != (self.l3_mb is None):
            raise ConfigurationError(
                "clock_ghz and l3_mb must be overridden together"
            )
        if self.clock_ghz is not None:
            if self.n_nodes != 1:
                raise ConfigurationError(
                    "custom clock/L3 variants are single-node only"
                )
            return custom_bx2(self.clock_ghz, self.l3_mb, n_cpus=self.n_cpus)
        node_type = NodeType(self.node_type)
        if self.n_nodes == 1:
            return single_node(node_type, n_cpus=self.n_cpus)
        return multinode(
            self.n_nodes, node_type=node_type, fabric=self.fabric,
            n_cpus=self.n_cpus, mpt=MPTVersion(self.mpt),
        )


@dataclass(frozen=True)
class PlacementSpec:
    """A declarative rank/thread layout, built against a cluster."""

    n_ranks: int
    threads_per_rank: int = 1
    stride: int = 1
    pinned: bool = True
    spread_nodes: bool = False

    def build(self, cluster):
        """Materialize the :class:`~repro.machine.placement.Placement`."""
        from repro.machine.placement import Placement, PinningMode

        return Placement(
            cluster,
            n_ranks=self.n_ranks,
            threads_per_rank=self.threads_per_rank,
            stride=self.stride,
            pinning=(PinningMode.PINNED if self.pinned
                     else PinningMode.UNPINNED),
            spread_nodes=self.spread_nodes,
        )


@dataclass(frozen=True)
class Scenario:
    """One cell of an experiment: workload id + params (+ machine).

    ``params`` is a sorted tuple of ``(name, value)`` pairs so equal
    parameter sets always hash equally regardless of declaration
    order.  Use :func:`scenario` to build one from keyword arguments.
    """

    workload: str
    params: tuple[tuple[str, Any], ...] = ()
    machine: MachineSpec | None = None
    placement: PlacementSpec | None = None
    #: degraded-machine conditions the cell runs under
    #: (:mod:`repro.faults`); ``None`` — the common case — is a
    #: healthy machine and leaves the cache key byte-identical to
    #: pre-faults builds.
    faults: FaultSpec | None = None
    #: execution tier (:class:`Fidelity`); stored as its string value.
    #: ``"full"`` — the default — is today's path and, like a missing
    #: fault spec, leaves the cache key byte-identical to pre-fidelity
    #: builds; non-default tiers join the key so an analytic answer
    #: can never be served for a full-DES request (or vice versa).
    fidelity: str = Fidelity.FULL.value

    def __post_init__(self) -> None:
        for name, value in self.params:
            _check_value(name, value)
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ConfigurationError(
                f"scenario faults must be a FaultSpec, "
                f"got {type(self.faults).__name__}"
            )
        if isinstance(self.fidelity, Fidelity):
            object.__setattr__(self, "fidelity", self.fidelity.value)
        if self.fidelity not in _FIDELITIES:
            raise ConfigurationError(
                f"scenario fidelity must be one of {_FIDELITIES}, "
                f"got {self.fidelity!r}"
            )

    def kwargs(self) -> dict[str, Any]:
        """The params as a keyword dict for the workload callable."""
        return dict(self.params)

    def describe(self) -> str:
        """Short human-readable cell label (for error reports)."""
        cached = self.__dict__.get("_describe")
        if cached is not None:
            return cached
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        tier = "" if self.fidelity == "full" else f" [{self.fidelity}]"
        label = f"{self.workload}({inner}){tier}"
        object.__setattr__(self, "_describe", label)
        return label

    def key(self) -> str:
        """Stable content hash of this scenario (hex digest).

        Two scenarios share a key iff they describe the same cell:
        same workload id, same parameters, same machine/placement
        spec, same fidelity tier.  The cache combines this with the
        calibration fingerprint and package version (see
        :mod:`repro.run.cache`).  Memoized per instance — the fields
        are frozen, so the digest can never go stale, and the serve
        fast path hashes each cell once instead of once per lookup.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        payload = {
            "workload": self.workload,
            "params": [[k, v] for k, v in self.params],
            "machine": None if self.machine is None else self.machine.payload(),
            "placement": (
                None if self.placement is None else vars(self.placement)
            ),
        }
        if self.faults:
            # Only present when faults are: fault-free scenarios keep
            # the keys (and disk caches) they had before the fault
            # layer existed.
            payload["faults"] = self.faults.payload()
        if self.fidelity != "full":
            # Same contract as faults: full-fidelity scenarios keep
            # the keys they had before the fidelity tier existed.
            payload["fidelity"] = self.fidelity
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        object.__setattr__(self, "_key", digest)
        return digest


def scenario(
    workload: str,
    machine: MachineSpec | None = None,
    placement: PlacementSpec | None = None,
    faults: FaultSpec | None = None,
    fidelity: str | Fidelity = Fidelity.FULL,
    **params: Any,
) -> Scenario:
    """Build one :class:`Scenario` from keyword parameters."""
    items = tuple(sorted((k, _check_value(k, v)) for k, v in params.items()))
    return Scenario(
        workload=workload, params=items, machine=machine,
        placement=placement, faults=faults, fidelity=fidelity,
    )


def sweep(
    workload: str,
    axes: Mapping[str, Iterable[Any]],
    base: Mapping[str, Any] | None = None,
    where: Callable[[dict[str, Any]], bool] | None = None,
    machine: MachineSpec | Callable[[dict[str, Any]], MachineSpec] | None = None,
    placement: PlacementSpec | Callable[[dict[str, Any]], PlacementSpec] | None = None,
    faults: FaultSpec | Callable[[dict[str, Any]], FaultSpec | None] | None = None,
    fidelity: str | Fidelity = Fidelity.FULL,
) -> tuple[Scenario, ...]:
    """Expand a cartesian grid of parameters into scenarios.

    ``axes`` maps parameter names to the values to sweep; the grid is
    expanded in axes-declaration order (first axis outermost), so the
    scenario order — and therefore result-row order — is deterministic.
    ``base`` supplies fixed parameters every cell shares.  ``where``
    filters grid points (it sees the full point dict, base included).
    ``machine``/``placement``/``faults`` may be static specs or
    callables mapping a grid point to a spec, for sweeps whose
    topology (or degradation) varies by cell.  ``fidelity`` applies
    to every cell (a sweep is one execution tier end to end).
    """
    base = dict(base or {})
    names = list(axes)
    cells = []
    for combo in itertools.product(*(tuple(axes[n]) for n in names)):
        point = dict(base)
        point.update(zip(names, combo))
        if where is not None and not where(point):
            continue
        mspec = machine(point) if callable(machine) else machine
        pspec = placement(point) if callable(placement) else placement
        fspec = faults(point) if callable(faults) else faults
        cells.append(
            scenario(workload, machine=mspec, placement=pspec,
                     faults=fspec, fidelity=fidelity, **point)
        )
    return tuple(cells)
