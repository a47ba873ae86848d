"""Fault specifications: frozen, hashable descriptions of degraded modes.

Columbia was characterized *while misbehaving*: §4.6.2 reports a
released-MPT anomaly making SP-MZ ~40% slower over InfiniBand, a boot
cpuset stealing 10-15% from full-512-CPU runs, and Fig. 10 shows IB
penalties worsening with node count.  Instead of baking those
observations into the cost formulas, each one is a *fault spec* — pure
data describing a degraded condition — that an experiment injects into
the simulation.  A healthy machine (no spec installed) shows none of
them.

Every spec is a frozen dataclass of JSON-safe scalars, so a
:class:`FaultSpec` can ride on a :class:`~repro.run.scenario.Scenario`
and participate in the result-cache key: two cells that differ only in
their injected faults hash (and cache) differently.

The §4.6.2 constants live here (not in the machine model) so the
calibration index points at one module:

* :data:`BOOT_CPUSET_PENALTY` — full-node runs contend with system
  software on the boot cpuset CPUs;
* :data:`MPT_ANOMALY_LATENCY` / :data:`MPT_ANOMALY_EXCESS` /
  :data:`MPT_ANOMALY_REFERENCE_CPUS` — the released MPT library's
  per-message overhead and the SP-MZ per-step excess it produces.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from typing import Any, Iterable

from repro.errors import ConfigurationError
from repro.units import usec

__all__ = [
    "BOOT_CPUSET_PENALTY",
    "MPT_ANOMALY_LATENCY",
    "MPT_ANOMALY_EXCESS",
    "MPT_ANOMALY_REFERENCE_CPUS",
    "Fault",
    "LinkDegradation",
    "LinkFlap",
    "RouterFailover",
    "Straggler",
    "OsJitter",
    "MessageDrop",
    "MptAnomaly",
    "BootCpuset",
    "FaultSpec",
    "parse_faults",
    "format_faults",
    "columbia_degraded",
    "COLUMBIA_DEGRADED",
]

#: §4.6.2: "the performance of 512-processor runs in a single node
#: dropped by 10-15%" — the multiplier a full-node job pays when its
#: ranks land on the CPUs reserved for system software.
BOOT_CPUSET_PENALTY = 1.12

#: Extra per-message latency (seconds) charged by the released MPT
#: library (mpt1.11r) on InfiniBand inter-node paths; absent in the
#: beta.  Calibrated with :data:`MPT_ANOMALY_EXCESS` to §4.6.2's
#: "40% slower at 256 CPUs, improving at larger counts".
MPT_ANOMALY_LATENCY = usec(14.0)

#: Fractional SP-MZ per-step compute excess at the reference CPU count.
MPT_ANOMALY_EXCESS = 0.40

#: CPU count at which the §4.6.2 40% deficit was measured.
MPT_ANOMALY_REFERENCE_CPUS = 256

#: Link classes a path fault may select (mirrors
#: :meth:`repro.mpi.comm.MPIWorld.link_info`); ``"any"`` matches all.
_LINK_CLASSES = ("any", "intra_brick", "intra_node", "inter_node")


def _check_link_class(link_class: str) -> None:
    if link_class not in _LINK_CLASSES:
        raise ConfigurationError(
            f"unknown link class {link_class!r}; expected one of {_LINK_CLASSES}"
        )


@dataclass(frozen=True)
class Fault:
    """Base class of all fault specs (pure data; see subclasses)."""

    #: short name used in ``--faults`` strings and payloads.
    kind = "fault"

    def __post_init__(self) -> None:
        """Check each field against its annotation: a ``float`` field
        holds a number a float can represent (not NaN or infinite), an
        ``int`` field an integer, a ``str`` field a string, and ``None``
        only where allowed.  Nothing is coerced, so a valid spec keeps
        its payload and cache key.  Subclasses call this first."""
        for f in fields(self):
            value = getattr(self, f.name)
            base, _, optional = f.type.partition(" | ")
            if value is None and optional == "None":
                continue
            if base == "str":
                ok = isinstance(value, str)
            elif base == "int":
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = (isinstance(value, (int, float))
                      and not isinstance(value, bool)
                      and abs(value) <= sys.float_info.max)
            if not ok:
                what = "a finite float" if base == "float" else f.type
                raise ConfigurationError(
                    f"{self.kind}: {f.name} must be {what}, got {value!r}"
                )

    def payload(self) -> dict[str, Any]:
        """Canonical JSON-safe dict (cache-key participation)."""
        out: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class LinkDegradation(Fault):
    """A persistently degraded link class: scaled latency/bandwidth.

    Models a failing cable, a congested switch stage, or a misrouted
    plane: every path of ``link_class`` pays
    ``latency * latency_factor + extra_latency`` at
    ``bandwidth * bandwidth_factor``.
    """

    kind = "degrade"

    link_class: str = "inter_node"
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_link_class(self.link_class)
        if self.latency_factor < 1.0 or not 0.0 < self.bandwidth_factor <= 1.0:
            raise ConfigurationError(
                f"degrade: latency_factor must be >= 1 and bandwidth_factor "
                f"in (0, 1], got {self.latency_factor}/{self.bandwidth_factor}"
            )
        if self.extra_latency < 0.0:
            raise ConfigurationError(
                f"degrade: negative extra_latency {self.extra_latency}"
            )


@dataclass(frozen=True)
class LinkFlap(Fault):
    """A link that goes bad periodically (deterministic duty cycle).

    For ``down_time`` out of every ``period`` simulated seconds
    (starting at ``phase``), messages on ``link_class`` pay
    ``latency_factor`` x latency — the retransmission storms of a
    flapping port, without randomness so runs stay reproducible.
    """

    kind = "flap"

    link_class: str = "inter_node"
    period: float = 1.0e-3
    down_time: float = 1.0e-4
    latency_factor: float = 10.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_link_class(self.link_class)
        if self.period <= 0 or not 0 <= self.down_time <= self.period:
            raise ConfigurationError(
                f"flap: need 0 <= down_time <= period, got "
                f"{self.down_time}/{self.period}"
            )
        if self.latency_factor < 1.0:
            raise ConfigurationError(
                f"flap: latency_factor must be >= 1, got {self.latency_factor}"
            )

    def is_down(self, now: float) -> bool:
        return (now - self.phase) % self.period < self.down_time


@dataclass(frozen=True)
class RouterFailover(Fault):
    """One node's NUMAlink router failed over to a spare route.

    Paths touching ``node`` detour ``extra_hops`` additional router
    hops, priced with that node's interconnect per-hop parameters
    (:mod:`repro.machine.interconnect`) — the topology-aware reroute.
    """

    kind = "failover"

    node: int = 0
    extra_hops: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node < 0 or self.extra_hops < 1:
            raise ConfigurationError(
                f"failover: need node >= 0 and extra_hops >= 1, got "
                f"{self.node}/{self.extra_hops}"
            )


@dataclass(frozen=True)
class Straggler(Fault):
    """A slow rank (or a whole slow node): compute stretched by ``factor``.

    Models a CPU stuck in a low-power state or a node with a noisy
    neighbor; exactly one of ``rank``/``node`` should be set.
    """

    kind = "straggler"

    rank: int | None = None
    node: int | None = None
    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.rank is None) == (self.node is None):
            raise ConfigurationError(
                "straggler: set exactly one of rank= or node="
            )
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"straggler: factor must be > 1, got {self.factor}"
            )


@dataclass(frozen=True)
class OsJitter(Fault):
    """Random OS interference on compute spans.

    Each compute segment stretches by ``1 + Exp(amplitude)`` drawn
    from the injector's seeded RNG — the system-software noise behind
    §4.6.2's observation that full-node runs fight the boot cpuset.
    Deterministic given the same ``(spec, scenario, seed)``.
    """

    kind = "jitter"

    amplitude: float = 0.02

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.amplitude <= 0:
            raise ConfigurationError(
                f"jitter: amplitude must be > 0, got {self.amplitude}"
            )


@dataclass(frozen=True)
class MessageDrop(Fault):
    """Messages dropped with probability ``probability`` per attempt.

    The MPI layer retries after ``timeout`` seconds, backing off
    exponentially (``timeout * backoff**attempt``), up to
    ``max_retries`` retransmissions; exhausting them raises a
    :class:`~repro.errors.CommunicationError` and fails the cell.
    Each retry is surfaced as a ``retry`` span and an ``mpi.retries``
    counter in :mod:`repro.obs`.
    """

    kind = "drop"

    probability: float = 0.01
    timeout: float = usec(50.0)
    max_retries: int = 5
    backoff: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability < 1.0:
            raise ConfigurationError(
                f"drop: probability must be in [0, 1), got {self.probability}"
            )
        if self.timeout <= 0 or self.max_retries < 0 or self.backoff < 1.0:
            raise ConfigurationError(
                f"drop: need timeout > 0, max_retries >= 0, backoff >= 1; got "
                f"{self.timeout}/{self.max_retries}/{self.backoff}"
            )


@dataclass(frozen=True)
class MptAnomaly(Fault):
    """§4.6.2: the released MPT library's InfiniBand anomaly.

    When the cluster runs the *released* library (mpt1.11r) over
    InfiniBand, every inter-node message pays ``extra_latency``, and
    SP-MZ additionally loses ``excess * (reference_cpus / P)`` of its
    per-step compute time (the per-process share of the per-message
    software overhead; the paper never found the root cause).  Clusters
    on the beta library are untouched — the fault describes what the
    released runtime does, the machine spec says which runtime is
    loaded.
    """

    kind = "mpt_anomaly"

    extra_latency: float = MPT_ANOMALY_LATENCY
    excess: float = MPT_ANOMALY_EXCESS
    reference_cpus: int = MPT_ANOMALY_REFERENCE_CPUS

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_latency < 0 or self.excess < 0 or self.reference_cpus < 1:
            raise ConfigurationError("mpt_anomaly: bad parameters")

    def step_excess(self, total_cpus: int) -> float:
        """Fractional per-step compute excess at ``total_cpus``."""
        return self.excess * (float(self.reference_cpus) / total_cpus)


@dataclass(frozen=True)
class BootCpuset(Fault):
    """§4.6.2: system software contends with full-node jobs.

    A job whose ranks occupy *every* CPU of a node shares cycles with
    the system processes pinned to the boot cpuset; its compute
    stretches by ``penalty``.  Jobs leaving even a few CPUs free (the
    paper's 508-CPU remedy) are untouched — the occupancy condition
    lives in :meth:`repro.machine.placement.Placement.uses_boot_cpuset`.
    """

    kind = "boot_cpuset"

    penalty: float = BOOT_CPUSET_PENALTY

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.penalty < 1.0:
            raise ConfigurationError(
                f"boot_cpuset: penalty must be >= 1, got {self.penalty}"
            )


#: kind -> class, for parsing and payload round-trips.
_FAULT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        LinkDegradation, LinkFlap, RouterFailover, Straggler, OsJitter,
        MessageDrop, MptAnomaly, BootCpuset,
    )
}


@dataclass(frozen=True)
class FaultSpec:
    """An ordered bundle of faults plus the injection seed.

    Frozen and hashable so it can sit on a
    :class:`~repro.run.scenario.Scenario`; :meth:`payload` is the
    canonical JSON form that joins the scenario's cache key.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, Fault):
                raise ConfigurationError(
                    f"FaultSpec entries must be Fault specs, got {f!r}"
                )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(
                f"FaultSpec seed must be an integer, got {self.seed!r}"
            )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def payload(self) -> dict[str, Any]:
        return {
            "faults": [f.payload() for f in self.faults],
            "seed": self.seed,
        }

    def merge(self, other: "FaultSpec | None") -> "FaultSpec":
        """This spec with ``other``'s faults appended (other's seed
        wins when set) — how a CLI ``--faults`` overlay combines with
        an experiment's own declared faults."""
        if other is None or not other.faults and other.seed == 0:
            return self
        return FaultSpec(
            faults=self.faults + other.faults,
            seed=other.seed if other.seed else self.seed,
        )

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "FaultSpec":
        faults = []
        for entry in payload.get("faults", ()):
            entry = dict(entry)
            kind = entry.pop("kind")
            cls = _FAULT_KINDS.get(kind)
            if cls is None:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
            faults.append(cls(**entry))
        return FaultSpec(faults=tuple(faults), seed=payload.get("seed", 0))


def columbia_degraded(seed: int = 0) -> FaultSpec:
    """The standing §4.6.2 machine state the paper measured under.

    Every Columbia measurement carried the boot-cpuset contention, and
    runs on the released MPT library carried the InfiniBand anomaly;
    the experiments reproducing the paper's tables inject this spec so
    their degraded-mode rows are *produced by* injection.
    """
    return FaultSpec(faults=(BootCpuset(), MptAnomaly()), seed=seed)


#: Shared instance of :func:`columbia_degraded` for sweep declarations.
COLUMBIA_DEGRADED = columbia_degraded()


# -- the --faults mini-language ----------------------------------------------

_DURATION_RE = re.compile(r"^([-+0-9.eE]+)(us|ms|s)?$")
_DURATION_SCALE = {None: 1.0, "s": 1.0, "ms": 1.0e-3, "us": 1.0e-6}


def _parse_value(text: str) -> Any:
    """One clause value: int, float (with optional us/ms/s suffix), str."""
    m = _DURATION_RE.match(text)
    if m and m.group(2) is not None:
        try:
            return float(m.group(1)) * _DURATION_SCALE[m.group(2)]
        except ValueError:  # e.g. "-ms": a string, which numeric fields reject
            return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("none", "None"):
        return None
    return text


def parse_faults(text: str) -> FaultSpec:
    """Parse a ``--faults`` string into a :class:`FaultSpec`.

    Grammar: semicolon-separated clauses; each is either ``seed=N`` or
    ``<kind>`` / ``<kind>:key=value,key=value``.  Durations accept
    ``us``/``ms``/``s`` suffixes.  Examples::

        drop:probability=0.02,timeout=50us,max_retries=4
        straggler:rank=3,factor=2.5;jitter:amplitude=0.05;seed=7
        degrade:link_class=inter_node,latency_factor=3;flap
        boot_cpuset;mpt_anomaly
    """
    faults: list[Fault] = []
    seed = 0
    for clause in filter(None, (c.strip() for c in text.split(";"))):
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ConfigurationError(
                    f"--faults: bad seed in {clause!r}"
                ) from None
            continue
        kind, _, argtext = clause.partition(":")
        cls = _FAULT_KINDS.get(kind.strip())
        if cls is None:
            raise ConfigurationError(
                f"--faults: unknown fault kind {kind.strip()!r}; expected one "
                f"of {sorted(_FAULT_KINDS)} or seed=N"
            )
        kwargs: dict[str, Any] = {}
        for pair in filter(None, (p.strip() for p in argtext.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ConfigurationError(
                    f"--faults: expected key=value in {clause!r}, got {pair!r}"
                )
            kwargs[key.strip()] = _parse_value(value.strip())
        try:
            faults.append(cls(**kwargs))
        except TypeError as exc:
            raise ConfigurationError(f"--faults: {clause!r}: {exc}") from None
    return FaultSpec(faults=tuple(faults), seed=seed)


def format_faults(spec: FaultSpec) -> str:
    """Inverse of :func:`parse_faults` (defaults elided)."""
    clauses = []
    for f in spec.faults:
        defaults = type(f)() if f.kind not in ("straggler",) else None
        args = []
        for fld in fields(f):
            value = getattr(f, fld.name)
            if defaults is not None and value == getattr(defaults, fld.name):
                continue
            if value is None:
                continue
            args.append(f"{fld.name}={value}")
        clauses.append(f"{f.kind}:{','.join(args)}" if args else f.kind)
    if spec.seed:
        clauses.append(f"seed={spec.seed}")
    return ";".join(clauses)


def iter_kinds() -> Iterable[str]:
    """Registered fault kinds (for CLI help and docs)."""
    return sorted(_FAULT_KINDS)
