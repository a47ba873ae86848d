"""Altix node model: 3700, BX2a and BX2b.

Table 1 of the paper: every Columbia node is a 512-processor
single-system-image NUMAflex machine with ~1 TB of globally shared
memory.  The 3700 packs 32 CPUs/rack (4-CPU C-Bricks, NUMAlink3,
3.2 GB/s); the BX2 packs 64 CPUs/rack (8-CPU C-Bricks, NUMAlink4,
6.4 GB/s).  "BX2a" denotes BX2 nodes with 1.5 GHz/6 MB parts, "BX2b"
the five with 1.6 GHz/9 MB parts (§4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.brick import CBrick
from repro.machine.interconnect import InterconnectSpec, NUMALINK3, NUMALINK4
from repro.machine.memory import ALTIX_FSB, MemoryBusSpec
from repro.machine.processor import (
    ITANIUM2_1500_6MB,
    ITANIUM2_1600_9MB,
    ProcessorSpec,
)
from repro.machine.router import hop_count
from repro.memo import memo
from repro.units import GIB, TERA

__all__ = [
    "AcceleratorSpec",
    "AltixNode",
    "MPI_MEMCPY_BANDWIDTH",
    "NodeType",
    "build_node",
]

NODE_CPUS = 512

#: Single-stream MPI copy bandwidth through shared memory at 1.5 GHz
#: (one CPU reading + writing through its half of the FSB).  This is
#: the ceiling for intra-node MPI transfers — the reason the paper
#: finds processor speed, not interconnect, determines natural-ring
#: bandwidth (§4.1.1).
MPI_MEMCPY_BANDWIDTH = 1.9e9


class NodeType(enum.Enum):
    """The three Altix node variants characterized in the paper."""

    A3700 = "3700"
    BX2A = "BX2a"
    BX2B = "BX2b"


_PROCESSOR: dict[NodeType, ProcessorSpec] = {
    NodeType.A3700: ITANIUM2_1500_6MB,
    NodeType.BX2A: ITANIUM2_1500_6MB,
    NodeType.BX2B: ITANIUM2_1600_9MB,
}

_INTERCONNECT: dict[NodeType, InterconnectSpec] = {
    NodeType.A3700: NUMALINK3,
    NodeType.BX2A: NUMALINK4,
    NodeType.BX2B: NUMALINK4,
}

_CPUS_PER_BRICK: dict[NodeType, int] = {
    NodeType.A3700: 4,  # 32 CPUs/rack
    NodeType.BX2A: 8,  # 64 CPUs/rack (double density)
    NodeType.BX2B: 8,
}


@dataclass(frozen=True)
class AcceleratorSpec:
    """Per-node accelerators (GPUs) for machine-zoo configurations.

    Columbia has none; the zoo's Marconi100-style preset attaches four
    V100-class devices per node.  The compute models price them as an
    offload term: the ``offload_fraction`` of solver flops that can
    run on the devices does so at ``count * peak_flops_each *
    efficiency``, the rest stays on the host CPUs (an Amdahl split —
    the shape of the ExaDigiT/RAPS ``node_peak_flops`` accounting).
    """

    name: str
    #: devices per node.
    count: int
    #: theoretical peak per device, flop/s.
    peak_flops_each: float
    #: fraction of solver flops the offloaded kernels cover.
    offload_fraction: float
    #: sustained fraction of device peak on real solver kernels.
    efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.count < 1 or self.peak_flops_each <= 0:
            raise ConfigurationError(
                f"{self.name}: accelerator count/peak must be positive"
            )
        if not 0.0 <= self.offload_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: offload_fraction must be in [0, 1], "
                f"got {self.offload_fraction}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"{self.name}: efficiency must be in (0, 1], "
                f"got {self.efficiency}"
            )

    @property
    def peak_flops(self) -> float:
        """Aggregate device peak per node, flop/s."""
        return self.count * self.peak_flops_each

    @property
    def sustained_flops(self) -> float:
        """Deliverable device rate per node, flop/s."""
        return self.peak_flops * self.efficiency


@dataclass(frozen=True)
class AltixNode:
    """One 512-CPU Altix node (a "box" in the paper's terms).

    ``node_type`` is one of the three Columbia :class:`NodeType`
    variants — or, for machine-zoo nodes, a plain string label.
    ``accelerator`` is ``None`` on every Columbia node; zoo configs
    may attach per-node devices (see :class:`AcceleratorSpec`).
    """

    node_type: NodeType | str
    n_cpus: int
    brick: CBrick
    interconnect: InterconnectSpec
    memory_bytes: float
    accelerator: AcceleratorSpec | None = None

    def __post_init__(self) -> None:
        if self.n_cpus < 1 or self.n_cpus % self.brick.cpus != 0:
            raise ConfigurationError(
                f"{self.n_cpus} CPUs not divisible into "
                f"{self.brick.cpus}-CPU bricks"
            )

    # -- layout -------------------------------------------------------------

    @property
    def processor(self) -> ProcessorSpec:
        return self.brick.processor

    @property
    def fsb(self) -> MemoryBusSpec:
        return self.brick.fsb

    @property
    def n_bricks(self) -> int:
        return self.n_cpus // self.brick.cpus

    def brick_of(self, cpu: int) -> int:
        """Which C-Brick a CPU lives in (0-based)."""
        self._check_cpu(cpu)
        return cpu // self.brick.cpus

    def fsb_of(self, cpu: int) -> int:
        """Global FSB index of a CPU within the node."""
        self._check_cpu(cpu)
        return cpu // self.fsb.cpus_per_fsb

    def hops(self, cpu_a: int, cpu_b: int) -> int:
        """NUMAlink router hops between two CPUs of this node."""
        return hop_count(self.brick_of(cpu_a), self.brick_of(cpu_b))

    def _path_tables(self) -> tuple:
        """``(brick_hops, lat_by_hops, bw_by_hops, cpus_per_brick)``.

        ``brick_hops[a, b]`` is the router hop count between bricks,
        ``lat_by_hops[h]``/``bw_by_hops[h]`` the finished clock-scaled
        latency and bandwidth of an ``h``-hop intra-node path, all as
        numpy arrays.  Built lazily on first path query and memoized
        on the instance (a frozen dataclass, hence
        ``object.__setattr__`` — the same idiom as
        ``Placement.content_key``): node objects are themselves
        memoized by :func:`build_node`, so each variant tabulates once
        per memo entry, never once per path query.
        """
        try:
            return self.__dict__["_ptables"]
        except KeyError:
            import numpy as np

            from repro.machine.router import hop_table, tree_depth

            speed = self.processor.clock_hz / 1.5e9
            memcpy_bw = MPI_MEMCPY_BANDWIDTH * speed
            pp = []
            for hops in range(2 * tree_depth(self.n_bricks) + 1):
                lat, bw = self.interconnect.point_to_point(hops)
                # Intra-node MPI moves data with CPU copies through
                # shared memory, so achievable bandwidth is capped by
                # a clock-scaled memcpy bound regardless of NUMAlink
                # generation; MPI software overhead runs on the CPU,
                # so latency scales with clock too (§4.1.1).
                pp.append((lat / speed, min(bw, memcpy_bw)))
            lat_by_hops, bw_by_hops = np.array(pp, dtype=float).T
            brick_hops = np.array(hop_table(self.n_bricks), dtype=np.intp)
            for shared in (brick_hops, lat_by_hops, bw_by_hops):
                shared.flags.writeable = False
            tables = (brick_hops, lat_by_hops, bw_by_hops, self.brick.cpus)
            object.__setattr__(self, "_ptables", tables)
            return tables

    def path_arrays(self, local_a, local_b) -> tuple:
        """``(latency_s, bandwidth_Bps)`` arrays of intra-node MPI
        paths between node-local CPU id arrays ``local_a[k]`` and
        ``local_b[k]`` (in range: the caller checks).

        The MPI software overhead (message matching, copies in and out
        of MPT buffers) runs on the CPU, so both latency and the
        achievable bandwidth of *local* transfers scale with clock —
        the paper's §4.1.1 finding that "in the case of the Natural
        Ring, where local communication predominates, processor speed
        is the determining factor", with a partial effect on remote
        paths ("In the Random Ring ... both processor speed and
        interconnect show effects").  All the arithmetic is
        precomputed per hop count, so a path is three gathers.
        """
        brick_hops, lat_by_hops, bw_by_hops, per_brick = self._path_tables()
        hops = brick_hops[local_a // per_brick, local_b // per_brick]
        return lat_by_hops[hops], bw_by_hops[hops]

    def point_to_point(self, cpu_a: int, cpu_b: int) -> tuple[float, float]:
        """(latency_s, bandwidth_Bps) for one intra-node MPI message:
        a one-element :meth:`path_arrays`."""
        import numpy as np

        self._check_cpu(cpu_a)
        self._check_cpu(cpu_b)
        lat, bw = self.path_arrays(np.array([cpu_a]), np.array([cpu_b]))
        return float(lat[0]), float(bw[0])

    @property
    def peak_flops(self) -> float:
        """Theoretical host-CPU node peak (Table 1: 3.07 / 3.28
        Tflop/s).  Excludes accelerators — see
        :attr:`total_peak_flops`."""
        return self.n_cpus * self.processor.peak_flops

    @property
    def accelerator_flops(self) -> float:
        """Aggregate accelerator peak, flop/s (0.0 without devices)."""
        return 0.0 if self.accelerator is None else self.accelerator.peak_flops

    @property
    def total_peak_flops(self) -> float:
        """CPU + accelerator peak (the RAPS ``node_peak_flops``)."""
        return self.peak_flops + self.accelerator_flops

    @property
    def type_label(self) -> str:
        """The node-type name, enum or zoo string alike."""
        nt = self.node_type
        return nt.value if isinstance(nt, NodeType) else str(nt)

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ConfigurationError(
                f"cpu {cpu} outside node of {self.n_cpus}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Altix {self.type_label} ({self.n_cpus} CPUs)"


@memo(maxsize=64)
def build_node(node_type: NodeType, n_cpus: int = NODE_CPUS) -> AltixNode:
    """Construct one of the three Columbia node variants.

    ``n_cpus`` can be reduced (power of two recommended) for small
    test machines; production nodes have 512.
    """
    cpus_per_brick = _CPUS_PER_BRICK[node_type]
    processor = _PROCESSOR[node_type]
    brick = CBrick(
        cpus=cpus_per_brick,
        memory_bytes=(2 * GIB) * cpus_per_brick,  # 8 GB / 4-CPU brick
        processor=processor,
        fsb=ALTIX_FSB,
        shubs=cpus_per_brick // 2,
    )
    return AltixNode(
        node_type=node_type,
        n_cpus=n_cpus,
        brick=brick,
        interconnect=_INTERCONNECT[node_type],
        memory_bytes=1.0 * TERA * (n_cpus / NODE_CPUS),
    )
