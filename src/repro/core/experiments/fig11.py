"""Fig. 11: NPB-MZ Class E under three networks.

Top row: per-CPU Gflop/s with NUMAlink4 across four BX2b nodes versus
within a single node, at one and two threads per process.  Bottom row:
total Gflop/s for the best thread combination, NUMAlink4 versus
InfiniBand — including the released-vs-beta MPT library anomaly for
SP-MZ.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.faults import COLUMBIA_DEGRADED
from repro.run import sweep, workload

__all__ = ["scenarios", "CPU_COUNTS"]

CPU_COUNTS = (256, 512, 768, 1024, 1536, 2048)
FAST_CPU_COUNTS = (256, 1024)

#: (label, fabric, mpt) — fabric None means a single BX2b node.
NETWORKS = (
    ("in-node", None, None),
    ("NUMAlink4", "numalink4", None),
    ("InfiniBand(beta)", "infiniband", "mpt1.11b"),
    ("InfiniBand(released)", "infiniband", "mpt1.11r"),
)


def _fits(point: dict) -> bool:
    total = 512 if point["fabric"] is None else 4 * 512
    cpus, threads = point["cpus"], point["threads"]
    if cpus > total:
        return False
    ranks = cpus // threads
    if ranks * threads != cpus or ranks < 1:
        return False
    return ranks <= 4096  # class E zone count


@workload("fig11.cell", fast="exact")
def _cell(benchmark: str, network: str, fabric: str | None,
          mpt: str | None, cpus: int, threads: int) -> list[tuple]:
    from repro.machine.cluster import multinode, single_node
    from repro.machine.infiniband import MPTVersion
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.npb.hybrid import MZTimingModel

    if fabric is None:
        cluster = single_node(NodeType.BX2B)
    elif fabric == "numalink4":
        cluster = multinode(4, fabric="numalink4")
    else:
        cluster = multinode(4, fabric="infiniband", mpt=MPTVersion(mpt))
    ranks = cpus // threads
    pl = Placement(
        cluster, n_ranks=ranks, threads_per_rank=threads,
        spread_nodes=fabric is not None,
    )
    m = MZTimingModel(benchmark, "E", pl)
    return [(
        benchmark, network, cpus, threads,
        round(m.gflops_per_cpu(), 3),
        round(m.total_gflops(), 1),
    )]


def scenarios(fast: bool = False):
    cells = []
    for bm in ("bt-mz", "sp-mz"):
        for label, fabric, mpt in NETWORKS:
            cells.extend(sweep(
                "fig11.cell",
                {
                    "cpus": FAST_CPU_COUNTS if fast else CPU_COUNTS,
                    "threads": (1, 2),
                },
                base={
                    "benchmark": bm, "network": label,
                    "fabric": fabric, "mpt": mpt,
                },
                where=_fits,
                # The paper measured Fig. 11 on Columbia as it stood:
                # boot-cpuset contention on full nodes and the
                # released-MPT anomaly are injected faults, not
                # machine properties (§4.6.2).
                faults=COLUMBIA_DEGRADED,
            ))
    return tuple(cells)


experiment(
    "fig11",
    anchor="Fig. 11",
    title="NPB-MZ Class E under three networks",
    heading="Fig. 11: NPB-MZ Class E per-CPU Gflop/s under three networks",
    columns=(
        "benchmark", "network", "cpus", "threads",
        "gflops_per_cpu", "total_gflops",
    ),
    scenarios=scenarios,
    notes="'in-node' rows exist only up to 512 CPUs; 512-CPU "
          "in-node runs include the boot-cpuset penalty (§4.6.2).",
    chart=("cpus", "gflops_per_cpu", "network", (("benchmark", "sp-mz"), ("threads", 1))),
)
