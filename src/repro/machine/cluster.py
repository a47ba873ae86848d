"""The Columbia supercluster: 20 Altix nodes and two fabrics.

Paper §2: Columbia is 20 x 512-CPU nodes — 12 model 3700 and 8 model
BX2, five of the BX2s with 1.6 GHz/9 MB parts ("BX2b").  An InfiniBand
switch connects all 20 nodes; four of the BX2b nodes are additionally
linked with NUMAlink4 into a 2,048-CPU / 13 Tflop/s capability
subsystem.

A :class:`Cluster` is the unit experiments run against: an ordered
list of nodes plus the inter-node fabric in use ("numalink4" or
"infiniband") and, for InfiniBand, the MPT runtime version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.infiniband import INFINIBAND, InfiniBandSpec, MPTVersion
from repro.machine.interconnect import NUMALINK4
from repro.machine.node import NODE_CPUS, AltixNode, NodeType, build_node

__all__ = ["Cluster", "columbia", "custom_bx2", "single_node", "multinode"]

#: Valid inter-node fabric names.
FABRICS = ("numalink4", "infiniband")


@dataclass(frozen=True)
class Cluster:
    """A set of Altix nodes joined by one inter-node fabric.

    Global CPU ids are dense: node 0 owns CPUs ``0 .. n0-1``, node 1
    the next ``n1``, and so on.  Columbia's clusters are *uniform*
    (every node holds 512 CPUs) and keep the fast ``i // cpus_per_node``
    geometry; machine-zoo clusters may mix node sizes, in which case
    the geometry runs on a per-node offset table and
    :attr:`cpus_per_node` (a uniform-only concept some layers, e.g.
    :class:`~repro.machine.placement.Placement`, are built on) raises
    loudly instead of silently misplacing CPUs.
    """

    nodes: tuple[AltixNode, ...]
    fabric: str = "numalink4"
    mpt: MPTVersion = MPTVersion.MPT_1_11B
    infiniband: InfiniBandSpec = INFINIBAND

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("a cluster needs at least one node")
        if self.fabric not in FABRICS:
            raise ConfigurationError(
                f"unknown fabric {self.fabric!r}; expected one of {FABRICS}"
            )

    # -- geometry -----------------------------------------------------------

    def _geometry(self) -> tuple[int | None, tuple[int, ...]]:
        """``(uniform_size_or_None, cpu_offsets)``, memoized.

        ``cpu_offsets[i]`` is the first global CPU id of node ``i``
        (plus a final total-CPUs sentinel).  Built once per cluster
        instance — the frozen-dataclass ``object.__setattr__`` idiom
        :meth:`AltixNode._path_tables` uses.
        """
        try:
            return self.__dict__["_geom"]
        except KeyError:
            sizes = [node.n_cpus for node in self.nodes]
            uniform = sizes[0] if len(set(sizes)) == 1 else None
            offsets = [0]
            for size in sizes:
                offsets.append(offsets[-1] + size)
            geom = (uniform, tuple(offsets))
            object.__setattr__(self, "_geom", geom)
            return geom

    @property
    def uniform(self) -> bool:
        """True when every node holds the same CPU count."""
        return self._geometry()[0] is not None

    @property
    def cpus_per_node(self) -> int:
        size, _ = self._geometry()
        if size is None:
            raise ConfigurationError(
                "cpus_per_node is undefined on a heterogeneous cluster "
                f"(node sizes {sorted({n.n_cpus for n in self.nodes})}); "
                "query node_of()/local_cpu() instead"
            )
        return size

    @property
    def total_cpus(self) -> int:
        return self._geometry()[1][-1]

    def node_of(self, cpu: int) -> int:
        """Which node a global CPU id belongs to."""
        size, offsets = self._geometry()
        if not 0 <= cpu < offsets[-1]:
            raise ConfigurationError(
                f"cpu {cpu} outside cluster of {offsets[-1]}"
            )
        if size is not None:
            return cpu // size
        from bisect import bisect_right

        return bisect_right(offsets, cpu) - 1

    def local_cpu(self, cpu: int) -> int:
        """CPU id within its node."""
        size, offsets = self._geometry()
        if size is not None:
            return cpu % size
        return cpu - offsets[self.node_of(cpu)]

    def node(self, index: int) -> AltixNode:
        return self.nodes[index]

    def locate(self, cpus) -> tuple:
        """``(node, local_cpu)`` integer arrays of an array of global
        CPU ids: the vector form of :meth:`node_of`/:meth:`local_cpu`."""
        import numpy as np

        cpus = np.asarray(cpus, dtype=np.intp)
        size, offsets = self._geometry()
        outside = (cpus < 0) | (cpus >= offsets[-1])
        if outside.any():
            raise ConfigurationError(
                f"cpu {int(cpus[outside][0])} outside cluster of {offsets[-1]}"
            )
        if size is not None:
            return cpus // size, cpus % size
        starts = np.asarray(offsets, dtype=np.intp)
        nodes = np.searchsorted(starts, cpus, side="right") - 1
        return nodes, cpus - starts[nodes]

    # -- communication cost ---------------------------------------------------

    def _numalink_tables(self) -> tuple:
        """``(depth_by_node, lat_by_hops, bw_by_hops)`` of cross-node
        NUMAlink4 paths, memoized on the instance like
        :meth:`_geometry`: a path climbs each node's fat tree to its
        root (``depth_by_node[i]`` hops), then crosses the inter-node
        link, priced per total hop count."""
        try:
            return self.__dict__["_nl_tables"]
        except KeyError:
            import numpy as np

            from repro.machine.router import tree_depth

            depth = np.array(
                [tree_depth(node.n_bricks) for node in self.nodes], dtype=np.intp
            )
            lat_by_hops, bw_by_hops = np.array(
                [NUMALINK4.point_to_point(hops, internode=True)
                 for hops in range(2 * int(depth.max()) + 1)],
                dtype=float,
            ).T
            tables = (depth, lat_by_hops, bw_by_hops)
            for shared in tables:
                shared.flags.writeable = False
            object.__setattr__(self, "_nl_tables", tables)
            return tables

    def path_arrays(self, node_a, local_a, node_b, local_b) -> tuple:
        """``(latency_s, bandwidth_Bps)`` arrays of the paths between
        CPU ``(node_a[k], local_a[k])`` and ``(node_b[k], local_b[k])``,
        as :meth:`locate` returns them.

        Intra-node messages use the node's own NUMAlink; inter-node
        messages use the cluster fabric (NUMAlink4 between the linked
        BX2b nodes, or the InfiniBand switch).  Every path is a table
        gather: per distinct node for same-node pairs, per hop count
        for NUMAlink4 pairs, one switch constant for InfiniBand.
        """
        import numpy as np

        if len(self.nodes) == 1:
            return self.nodes[0].path_arrays(local_a, local_b)
        lat = np.empty(node_a.shape)
        bw = np.empty(node_a.shape)
        same = node_a == node_b
        for index in np.unique(node_a[same]).tolist():
            sel = same & (node_a == index)
            lat[sel], bw[sel] = self.nodes[index].path_arrays(
                local_a[sel], local_b[sel]
            )
        cross = ~same
        if cross.any():
            if self.fabric == "numalink4":
                depth, lat_by_hops, bw_by_hops = self._numalink_tables()
                hops = depth[node_a[cross]] + depth[node_b[cross]]
                lat[cross], bw[cross] = lat_by_hops[hops], bw_by_hops[hops]
            else:
                lat[cross], bw[cross] = self.infiniband.point_to_point(
                    len(self.nodes)
                )
        return lat, bw

    def point_to_point(self, cpu_a: int, cpu_b: int) -> tuple[float, float]:
        """(latency_s, bandwidth_Bps) between two global CPUs: a
        one-element :meth:`path_arrays`."""
        nodes, local = self.locate((cpu_a, cpu_b))
        lat, bw = self.path_arrays(nodes[:1], local[:1], nodes[1:], local[1:])
        return float(lat[0]), float(bw[0])

    def crosses_nodes(self, cpu_a: int, cpu_b: int) -> bool:
        return self.node_of(cpu_a) != self.node_of(cpu_b)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        counts: dict[str, int] = {}
        for n in self.nodes:
            counts[n.type_label] = counts.get(n.type_label, 0) + 1
        kinds = ", ".join(f"{c}x{label}" for label, c in counts.items())
        return f"Cluster[{kinds}; fabric={self.fabric}]"


# -- builders ----------------------------------------------------------------


def single_node(node_type: NodeType, n_cpus: int = NODE_CPUS) -> Cluster:
    """A one-node cluster (most of §4.1's experiments)."""
    return Cluster(nodes=(build_node(node_type, n_cpus),))


def multinode(
    n_nodes: int,
    node_type: NodeType = NodeType.BX2B,
    fabric: str = "numalink4",
    n_cpus: int = NODE_CPUS,
    mpt: MPTVersion = MPTVersion.MPT_1_11B,
) -> Cluster:
    """``n_nodes`` identical nodes joined by ``fabric`` (§4.6).

    The paper's multinode experiments use up to four BX2b nodes via
    NUMAlink4 and/or InfiniBand.
    """
    if n_nodes < 1:
        raise ConfigurationError(f"need at least one node, got {n_nodes}")
    if fabric == "numalink4" and n_nodes > 4:
        raise ConfigurationError(
            "only four BX2b nodes are NUMAlink4-linked on Columbia (paper §2)"
        )
    nodes = tuple(build_node(node_type, n_cpus) for _ in range(n_nodes))
    return Cluster(nodes=nodes, fabric=fabric, mpt=mpt)


def custom_bx2(clock_ghz: float, l3_mb: int, n_cpus: int = NODE_CPUS) -> Cluster:
    """A hypothetical single-node BX2 variant with the given clock and
    L3 size.

    The real BX2b differs from the BX2a in *both* clock (1.6 vs 1.5
    GHz) and L3 (9 vs 6 MB); the ablation experiments build the two
    intermediate machines (1.5/9 and 1.6/6) to separate the effects.
    This is the canonical builder for those variants — the ablation
    cells and the Scenario layer's ``MachineSpec`` overrides both
    route through it.
    """
    from repro.machine.brick import CBrick
    from repro.machine.memory import ALTIX_FSB
    from repro.machine.node import AltixNode
    from repro.machine.processor import ProcessorSpec, _itanium2_caches
    from repro.units import TERA

    proc = ProcessorSpec(
        name=f"Itanium2 {clock_ghz}GHz/{l3_mb}MB",
        clock_hz=clock_ghz * 1e9,
        flops_per_cycle=4,
        fp_registers=128,
        caches=_itanium2_caches(l3_mb),
    )
    template = build_node(NodeType.BX2A)
    brick = CBrick(
        cpus=template.brick.cpus,
        memory_bytes=template.brick.memory_bytes,
        processor=proc,
        fsb=ALTIX_FSB,
        shubs=template.brick.shubs,
    )
    node = AltixNode(
        node_type=NodeType.BX2A,
        n_cpus=n_cpus,
        brick=brick,
        interconnect=NUMALINK4,
        memory_bytes=1.0 * TERA,
    )
    return Cluster(nodes=(node,))


def columbia(fabric: str = "infiniband", mpt: MPTVersion = MPTVersion.MPT_1_11B) -> Cluster:
    """The full 20-node Columbia configuration (paper §2).

    12 x 3700, 3 x BX2a and 5 x BX2b; all 20 reachable over the
    InfiniBand switch.
    """
    nodes = (
        tuple(build_node(NodeType.A3700) for _ in range(12))
        + tuple(build_node(NodeType.BX2A) for _ in range(3))
        + tuple(build_node(NodeType.BX2B) for _ in range(5))
    )
    return Cluster(nodes=nodes, fabric=fabric, mpt=mpt)
