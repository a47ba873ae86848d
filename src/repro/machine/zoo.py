"""The machine zoo: declarative cluster configs and a preset registry.

The paper's core move is *cross-machine* characterization (3700 vs
BX2a vs BX2b, NUMAlink4 vs InfiniBand), but the model layer only ever
instantiated Columbia through three hardcoded builders.  This module
makes a whole cluster a frozen, hashable piece of *data*: a
:class:`MachineConfig` names every parameter the hardware models need
— node counts, CPUs and C-Brick packing, clock/FLOP-per-cycle/cache
hierarchy, front-side-bus and NUMAlink numbers, the inter-node fabric,
and (for post-Columbia machines) per-node accelerators priced as an
Amdahl offload term (the ExaDigiT/RAPS ``node_peak_flops`` shape).

Configs round-trip losslessly through plain dicts, JSON and TOML, can
be perturbed with dotted-path overrides (``nodes.0.node.n_cpus``), and
live in a process-wide registry.  Four contrasting presets ship:

* ``columbia``  — the 20-node supercluster re-expressed as data; its
  built :class:`~repro.machine.cluster.Cluster` compares equal to the
  legacy :func:`~repro.machine.cluster.columbia` builder's output, so
  every experiment result is byte-identical.
* ``fat_numa``  — four fat 1024-CPU NUMA nodes on a NUMAlink4 fabric.
* ``thin_ib``   — 64 thin 32-CPU nodes behind an InfiniBand switch.
* ``gpu_node``  — eight 32-CPU nodes with four V100-class devices
  each, à la Marconi100.

``repro compare`` runs the experiment suite across any subset of the
registry and reports who-wins/crossover tables like the paper's
Altix-vs-BX2 analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields, is_dataclass, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.machine.brick import CBrick
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.cluster import FABRICS, Cluster
from repro.machine.infiniband import INFINIBAND, InfiniBandSpec, MPTVersion
from repro.machine.interconnect import InterconnectSpec
from repro.machine.memory import MemoryBusSpec
from repro.machine.node import AcceleratorSpec, AltixNode, NodeType
from repro.machine.processor import ProcessorSpec
from repro.memo import memo
from repro.units import GIB, KIB, MIB, TERA, gb_per_s, usec

__all__ = [
    "BusConfig",
    "LinkConfig",
    "MachineConfig",
    "NodeConfig",
    "NodeGroup",
    "ProcessorConfig",
    "SwitchConfig",
    "build_machine",
    "cluster_cost",
    "list_machines",
    "load_machine",
    "machine_config",
    "machine_from_dict",
    "register_machine",
]


# -- leaf configs ------------------------------------------------------------


@dataclass(frozen=True)
class ProcessorConfig:
    """A processor, in catalogue units (GHz, KB/MB caches).

    Cache latencies and line sizes keep the Itanium2 shape (1/5/14
    cycles, 64/128-byte lines) — the miss model is capacity-driven, so
    only the sizes matter to first order.  ``l1_holds_fp`` defaults to
    the Itanium2 quirk (the L1D cannot hold floating-point data).
    """

    name: str
    clock_ghz: float
    flops_per_cycle: int = 4
    l1_kb: int = 32
    l2_kb: int = 256
    l3_mb: int = 6
    fp_registers: int = 128
    l1_holds_fp: bool = False

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0 or self.flops_per_cycle < 1:
            raise ConfigurationError(f"{self.name}: bad clock/flops_per_cycle")
        if min(self.l1_kb, self.l2_kb, self.l3_mb) <= 0:
            raise ConfigurationError(f"{self.name}: cache sizes must be positive")

    def build(self) -> ProcessorSpec:
        caches = CacheHierarchy(
            (
                CacheLevel("L1D", self.l1_kb * KIB, latency_cycles=1,
                           line_bytes=64, holds_fp=self.l1_holds_fp),
                CacheLevel("L2", self.l2_kb * KIB, latency_cycles=5,
                           line_bytes=128),
                CacheLevel("L3", self.l3_mb * MIB, latency_cycles=14,
                           line_bytes=128),
            )
        )
        return ProcessorSpec(
            name=self.name,
            clock_hz=self.clock_ghz * 1e9,
            flops_per_cycle=self.flops_per_cycle,
            fp_registers=self.fp_registers,
            caches=caches,
        )


@dataclass(frozen=True)
class BusConfig:
    """A front-side / memory bus, in GB/s.  Defaults mirror the Altix
    FSB (two CPUs per bus, §4.2)."""

    gb_s: float = 4.0
    cpu_max_gb_s: float = 3.8
    cpus_per_bus: int = 2

    def build(self) -> MemoryBusSpec:
        return MemoryBusSpec(
            fsb_bandwidth=gb_per_s(self.gb_s),
            cpu_max_bandwidth=gb_per_s(self.cpu_max_gb_s),
            cpus_per_fsb=self.cpus_per_bus,
        )


@dataclass(frozen=True)
class LinkConfig:
    """The intra-node interconnect, in GB/s and microseconds."""

    name: str
    gb_s: float
    mpi_efficiency: float
    base_latency_us: float
    per_hop_latency_us: float
    per_hop_bw_derate: float
    internode_latency_us: float
    plane_factor: float = 1.0

    def build(self) -> InterconnectSpec:
        return InterconnectSpec(
            name=self.name,
            link_bandwidth=gb_per_s(self.gb_s),
            mpi_efficiency=self.mpi_efficiency,
            base_latency=usec(self.base_latency_us),
            per_hop_latency=usec(self.per_hop_latency_us),
            per_hop_bw_derate=self.per_hop_bw_derate,
            internode_latency=usec(self.internode_latency_us),
            plane_factor=self.plane_factor,
        )


@dataclass(frozen=True)
class SwitchConfig:
    """The inter-node switch (InfiniBand-class), in GB/s and µs."""

    name: str
    gb_s: float
    base_latency_us: float
    per_extra_node_latency_us: float
    per_extra_node_bw_derate: float
    cards_per_node: int = 8
    connections_per_card: int = 64 * 1024

    def build(self) -> InfiniBandSpec:
        return InfiniBandSpec(
            name=self.name,
            bandwidth=gb_per_s(self.gb_s),
            base_latency=usec(self.base_latency_us),
            per_extra_node_latency=usec(self.per_extra_node_latency_us),
            per_extra_node_bw_derate=self.per_extra_node_bw_derate,
            cards_per_node=self.cards_per_node,
            connections_per_card=self.connections_per_card,
        )


@dataclass(frozen=True)
class NodeConfig:
    """One node model: packing, memory, processor, bus and link.

    ``type`` is a free label; when it matches a Columbia
    :class:`~repro.machine.node.NodeType` value ("3700"/"BX2a"/"BX2b")
    the built node carries the enum, so Columbia-shaped configs stay
    interchangeable with legacy builder output.
    """

    type: str
    n_cpus: int
    cpus_per_brick: int
    memory_tb: float
    processor: ProcessorConfig
    link: LinkConfig
    bus: BusConfig = BusConfig()
    brick_gib_per_cpu: float = 2.0
    accelerator: AcceleratorSpec | None = None

    def __post_init__(self) -> None:
        if self.n_cpus < 1 or self.cpus_per_brick < 1:
            raise ConfigurationError(f"{self.type}: bad CPU counts")
        if self.n_cpus % self.cpus_per_brick != 0:
            raise ConfigurationError(
                f"{self.type}: {self.n_cpus} CPUs not divisible into "
                f"{self.cpus_per_brick}-CPU bricks"
            )
        if self.memory_tb <= 0 or self.brick_gib_per_cpu <= 0:
            raise ConfigurationError(f"{self.type}: memory must be positive")

    def build(self) -> AltixNode:
        try:
            node_type: NodeType | str = NodeType(self.type)
        except ValueError:
            node_type = self.type
        brick_mem = self.brick_gib_per_cpu * GIB * self.cpus_per_brick
        if float(brick_mem).is_integer():
            brick_mem = int(brick_mem)
        brick = CBrick(
            cpus=self.cpus_per_brick,
            memory_bytes=brick_mem,
            processor=self.processor.build(),
            fsb=self.bus.build(),
            shubs=max(1, self.cpus_per_brick // 2),
        )
        return AltixNode(
            node_type=node_type,
            n_cpus=self.n_cpus,
            brick=brick,
            interconnect=self.link.build(),
            memory_bytes=self.memory_tb * TERA,
            accelerator=self.accelerator,
        )


@dataclass(frozen=True)
class NodeGroup:
    """``count`` identical nodes."""

    count: int
    node: NodeConfig

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"node group count must be >= 1: {self.count}")


# -- the machine config ------------------------------------------------------


@dataclass(frozen=True)
class MachineConfig:
    """A complete cluster as data: node groups plus the fabric.

    Frozen and hashable, so a config can sit inside a
    :class:`~repro.run.scenario.MachineSpec`, a cache key, or an
    explore :class:`~repro.explore.space.SearchSpace` dimension like
    any other scalar.
    """

    name: str
    nodes: tuple[NodeGroup, ...]
    fabric: str = "numalink4"
    mpt: str = "mpt1.11b"
    switch: SwitchConfig | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("machine config needs a name")
        if isinstance(self.nodes, list):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ConfigurationError(f"{self.name}: needs at least one node group")
        if self.fabric not in FABRICS:
            raise ConfigurationError(
                f"{self.name}: unknown fabric {self.fabric!r}; "
                f"expected one of {FABRICS}"
            )
        MPTVersion(self.mpt)  # raises ValueError on an unknown runtime
        if self.switch is not None and self.fabric != "infiniband":
            raise ConfigurationError(
                f"{self.name}: a switch only applies to the infiniband fabric"
            )

    # -- shape ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return sum(group.count for group in self.nodes)

    @property
    def total_cpus(self) -> int:
        return sum(group.count * group.node.n_cpus for group in self.nodes)

    def build(self) -> Cluster:
        """Materialize the hardware models (memoized per config)."""
        return _build_cluster(self)

    # -- overrides -----------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any] |
                       tuple[tuple[str, Any], ...]) -> "MachineConfig":
        """A new config with dotted-path fields replaced.

        Paths address dataclass fields and tuple indices uniformly:
        ``fabric``, ``nodes.0.count``, ``nodes.0.node.n_cpus``,
        ``nodes.0.node.processor.clock_ghz``.  Validation reruns on
        every touched level (frozen dataclasses re-``__post_init__``
        through :func:`dataclasses.replace`).
        """
        pairs = overrides.items() if isinstance(overrides, Mapping) else overrides
        config = self
        for path, value in pairs:
            config = _replace_path(config, path, path.split("."), value)
        return config

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain nested dict (``None`` fields omitted)."""
        return _to_dict(self)

    def to_json(self) -> str:
        """Deterministic JSON (field order, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_toml(self) -> str:
        """Deterministic TOML for the restricted config schema."""
        return _to_toml(self.to_dict())


def _replace_path(obj: Any, full: str, parts: list[str], value: Any) -> Any:
    if not parts:
        return value
    head, rest = parts[0], parts[1:]
    if isinstance(obj, tuple):
        try:
            idx = int(head)
        except ValueError:
            raise ConfigurationError(
                f"override {full!r}: expected a tuple index, got {head!r}"
            ) from None
        if not 0 <= idx < len(obj):
            raise ConfigurationError(
                f"override {full!r}: index {idx} outside tuple of {len(obj)}"
            )
        return obj[:idx] + (_replace_path(obj[idx], full, rest, value),) + obj[idx + 1:]
    if is_dataclass(obj) and not isinstance(obj, type):
        names = {f.name for f in dc_fields(obj)}
        if head not in names:
            raise ConfigurationError(
                f"override {full!r}: {type(obj).__name__} has no field {head!r} "
                f"(has {sorted(names)})"
            )
        new = _replace_path(getattr(obj, head), full, rest, value)
        return replace(obj, **{head: new})
    raise ConfigurationError(
        f"override {full!r}: cannot descend into {type(obj).__name__} at {head!r}"
    )


# -- dict / JSON / TOML round-trips ------------------------------------------


def _to_dict(obj: Any) -> Any:
    if is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {}
        for f in dc_fields(obj):
            value = getattr(obj, f.name)
            if value is None:
                continue  # TOML has no null; omission is the wire form
            out[f.name] = _to_dict(value)
        return out
    if isinstance(obj, tuple):
        return [_to_dict(item) for item in obj]
    return obj


def _pick(cls: type, data: Mapping[str, Any], **converted: Any) -> Any:
    """Build ``cls`` from the mapping's scalar fields + converted ones."""
    names = {f.name for f in dc_fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: unknown config fields {sorted(unknown)}"
        )
    kwargs = {k: v for k, v in data.items() if k not in converted}
    kwargs.update(converted)
    return cls(**kwargs)


def machine_from_dict(data: Mapping[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :meth:`MachineConfig.to_dict`
    output (or hand-written JSON/TOML of the same shape)."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"machine config must be a table, got {type(data)}")

    def node_from(nd: Mapping[str, Any]) -> NodeConfig:
        return _pick(
            NodeConfig,
            nd,
            processor=_pick(ProcessorConfig, nd.get("processor", {})),
            link=_pick(LinkConfig, nd.get("link", {})),
            bus=_pick(BusConfig, nd.get("bus", {})) if "bus" in nd else BusConfig(),
            accelerator=(
                _pick(AcceleratorSpec, nd["accelerator"])
                if "accelerator" in nd else None
            ),
        )

    groups = tuple(
        _pick(NodeGroup, gd, node=node_from(gd.get("node", {})))
        for gd in data.get("nodes", ())
    )
    return _pick(
        MachineConfig,
        data,
        nodes=groups,
        switch=_pick(SwitchConfig, data["switch"]) if "switch" in data else None,
    )


def load_machine(path: str) -> MachineConfig:
    """Load a config from a ``.json`` or ``.toml`` file."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    elif path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        raise ConfigurationError(
            f"machine config files must be .json or .toml: {path!r}"
        )
    return machine_from_dict(data)


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings share JSON escaping
    raise ConfigurationError(f"cannot render {type(value).__name__} as TOML")


def _to_toml(data: Mapping[str, Any], prefix: str = "", lines: list[str] | None = None) -> str:
    """Render the nested config dict as TOML.

    The schema only ever nests tables and *lists of tables* (node
    groups), which keeps a stdlib-only emitter small; ``tomllib``
    parses it back to the identical dict.
    """
    top = lines is None
    if lines is None:
        lines = []
    scalars = {k: v for k, v in data.items() if not isinstance(v, (Mapping, list))}
    tables = {k: v for k, v in data.items() if isinstance(v, Mapping)}
    arrays = {k: v for k, v in data.items() if isinstance(v, list)}
    for key, value in scalars.items():
        lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in tables.items():
        full = f"{prefix}{key}"
        lines.append("")
        lines.append(f"[{full}]")
        _to_toml(value, f"{full}.", lines)
    for key, items in arrays.items():
        full = f"{prefix}{key}"
        for item in items:
            if not isinstance(item, Mapping):
                raise ConfigurationError(
                    f"{full}: only lists of tables are TOML-renderable"
                )
            lines.append("")
            lines.append(f"[[{full}]]")
            _to_toml(item, f"{full}.", lines)
    return "\n".join(lines) + "\n" if top else ""


# -- building ----------------------------------------------------------------


@memo(maxsize=64)
def _build_cluster(config: MachineConfig) -> Cluster:
    nodes: list[AltixNode] = []
    for group in config.nodes:
        node = group.node.build()
        nodes.extend([node] * group.count)
    return Cluster(
        nodes=tuple(nodes),
        fabric=config.fabric,
        mpt=MPTVersion(config.mpt),
        infiniband=config.switch.build() if config.switch is not None else INFINIBAND,
    )


# -- cost proxy --------------------------------------------------------------


def cluster_cost(cluster: Cluster) -> float:
    """A relative acquisition-cost proxy, in arbitrary units.

    Derived purely from the hardware models (never from a machine's
    registry name) so explore studies can rank *any* cluster: CPUs are
    priced superlinearly in clock with an L3 premium, memory and
    accelerators per capacity, and a custom NUMA fabric carries a
    premium over a commodity switch.  Used by ``repro compare``
    (perf-per-cost column) and the ``cheapest-machine`` study.
    """
    total = 0.0
    for node in cluster.nodes:
        proc = node.processor
        per_cpu = (proc.clock_hz / 1e9) ** 2 * (
            1.0 + 0.04 * (proc.l3_bytes / MIB)
        )
        node_cost = node.n_cpus * per_cpu
        node_cost += 8.0 * (node.memory_bytes / TERA)
        if node.accelerator is not None:
            node_cost += 25.0 * (node.accelerator.peak_flops / 1e12)
        total += node_cost
    if cluster.fabric == "numalink4":
        total *= 1.25
    return total


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, MachineConfig] = {}


def register_machine(config: MachineConfig, replace: bool = False) -> MachineConfig:
    """Add a config to the zoo under ``config.name``."""
    if config.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"machine {config.name!r} already registered "
            f"(pass replace=True to override)"
        )
    _REGISTRY[config.name] = config
    return config


def machine_config(name: str) -> MachineConfig:
    """Look a registered config up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; registered: {', '.join(list_machines())}"
        ) from None


def list_machines() -> tuple[str, ...]:
    """Registered machine names, registration order."""
    return tuple(_REGISTRY)


def build_machine(
    name: str, overrides: Mapping[str, Any] | tuple[tuple[str, Any], ...] = ()
) -> Cluster:
    """Build a registered machine, with optional dotted overrides."""
    config = machine_config(name)
    if overrides:
        config = config.with_overrides(overrides)
    return config.build()


# -- presets -----------------------------------------------------------------

# Columbia's parts, re-expressed in catalogue units.  The built output
# compares equal to the legacy columbia() builder, field for field —
# pinned by tests/test_machine_zoo.py.
_ITANIUM2_1500 = ProcessorConfig(name="Itanium2 1.5GHz/6MB", clock_ghz=1.5, l3_mb=6)
_ITANIUM2_1600 = ProcessorConfig(name="Itanium2 1.6GHz/9MB", clock_ghz=1.6, l3_mb=9)
_NUMALINK3 = LinkConfig(
    name="NUMAlink3", gb_s=3.2, mpi_efficiency=0.58, base_latency_us=1.1,
    per_hop_latency_us=0.12, per_hop_bw_derate=0.085,
    internode_latency_us=1.0, plane_factor=0.35,
)
_NUMALINK4 = LinkConfig(
    name="NUMAlink4", gb_s=6.4, mpi_efficiency=0.58, base_latency_us=1.0,
    per_hop_latency_us=0.07, per_hop_bw_derate=0.055,
    internode_latency_us=0.9, plane_factor=1.0,
)

COLUMBIA = register_machine(MachineConfig(
    name="columbia",
    description="The 20-node Columbia supercluster (paper §2) as data.",
    nodes=(
        NodeGroup(12, NodeConfig(
            type="3700", n_cpus=512, cpus_per_brick=4, memory_tb=1.0,
            processor=_ITANIUM2_1500, link=_NUMALINK3,
        )),
        NodeGroup(3, NodeConfig(
            type="BX2a", n_cpus=512, cpus_per_brick=8, memory_tb=1.0,
            processor=_ITANIUM2_1500, link=_NUMALINK4,
        )),
        NodeGroup(5, NodeConfig(
            type="BX2b", n_cpus=512, cpus_per_brick=8, memory_tb=1.0,
            processor=_ITANIUM2_1600, link=_NUMALINK4,
        )),
    ),
    fabric="infiniband",
    switch=SwitchConfig(
        name="InfiniBand (Voltaire ISR 9288)", gb_s=0.82, base_latency_us=5.6,
        per_extra_node_latency_us=1.6, per_extra_node_bw_derate=0.16,
        cards_per_node=8, connections_per_card=64 * 1024,
    ),
))

FAT_NUMA = register_machine(MachineConfig(
    name="fat_numa",
    description="Four fat 1024-CPU NUMA nodes on a NUMAlink4 fabric.",
    nodes=(
        NodeGroup(4, NodeConfig(
            type="fat", n_cpus=1024, cpus_per_brick=8, memory_tb=2.0,
            processor=ProcessorConfig(
                name="FatSocket 1.9GHz/18MB", clock_ghz=1.9, l3_mb=18,
            ),
            link=LinkConfig(
                name="NUMAlink4+", gb_s=12.8, mpi_efficiency=0.6,
                base_latency_us=0.8, per_hop_latency_us=0.06,
                per_hop_bw_derate=0.05, internode_latency_us=0.8,
            ),
            bus=BusConfig(gb_s=6.4, cpu_max_gb_s=5.0),
        )),
    ),
    fabric="numalink4",
))

THIN_IB = register_machine(MachineConfig(
    name="thin_ib",
    description="64 thin 32-CPU nodes behind a commodity InfiniBand switch.",
    nodes=(
        NodeGroup(64, NodeConfig(
            type="thin", n_cpus=32, cpus_per_brick=8, memory_tb=0.128,
            processor=ProcessorConfig(
                name="ThinCore 2.6GHz/4MB", clock_ghz=2.6, l3_mb=4,
                l1_holds_fp=True,
            ),
            link=LinkConfig(
                name="HyperFabric", gb_s=6.0, mpi_efficiency=0.7,
                base_latency_us=0.5, per_hop_latency_us=0.05,
                per_hop_bw_derate=0.05, internode_latency_us=0.5,
            ),
            bus=BusConfig(gb_s=6.4, cpu_max_gb_s=5.2),
        )),
    ),
    fabric="infiniband",
    switch=SwitchConfig(
        name="InfiniBand 4x DDR", gb_s=1.5, base_latency_us=4.0,
        per_extra_node_latency_us=0.9, per_extra_node_bw_derate=0.10,
        cards_per_node=2,
    ),
))

GPU_NODE = register_machine(MachineConfig(
    name="gpu_node",
    description="Eight 32-CPU nodes with four V100-class accelerators "
                "each, à la Marconi100.",
    nodes=(
        NodeGroup(8, NodeConfig(
            type="gpu", n_cpus=32, cpus_per_brick=8, memory_tb=0.256,
            processor=ProcessorConfig(
                name="GPUHost 2.1GHz/10MB", clock_ghz=2.1,
                l3_mb=10, l1_holds_fp=True,
            ),
            link=LinkConfig(
                name="NodeMesh", gb_s=8.0, mpi_efficiency=0.7,
                base_latency_us=0.6, per_hop_latency_us=0.05,
                per_hop_bw_derate=0.05, internode_latency_us=0.6,
            ),
            bus=BusConfig(gb_s=14.0, cpu_max_gb_s=9.0),
            accelerator=AcceleratorSpec(
                name="V100", count=4, peak_flops_each=7.8e12,
                offload_fraction=0.85, efficiency=0.45,
            ),
        )),
    ),
    fabric="infiniband",
    switch=SwitchConfig(
        name="InfiniBand EDR", gb_s=12.0, base_latency_us=1.3,
        per_extra_node_latency_us=0.5, per_extra_node_bw_derate=0.05,
        cards_per_node=2,
    ),
))
