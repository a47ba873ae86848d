"""Table 6: OVERFLOW-D across multiple BX2b nodes, NUMAlink4 vs
InfiniBand."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import scenario, workload

__all__ = ["scenarios", "CONFIGS"]

#: (n_nodes, total CPU counts measured) — up to four BX2b nodes.
CONFIGS = (
    (2, (252, 504)),
    (4, (504, 1008, 2016)),
)


@workload("table6.cell", fast="exact")
def _cell(nodes: int, cpus: int) -> list[tuple]:
    from repro.apps.overflow import OverflowModel
    from repro.machine.cluster import multinode

    nl = OverflowModel(cluster=multinode(nodes, fabric="numalink4"))
    ib = OverflowModel(cluster=multinode(nodes, fabric="infiniband"))
    s_nl = nl.reported(cpus)
    s_ib = ib.reported(cpus)
    return [(
        nodes, cpus,
        round(s_nl.comm, 2), round(s_nl.exec, 2),
        round(s_ib.comm, 2), round(s_ib.exec, 2),
    )]


def scenarios(fast: bool = False):
    return tuple(
        scenario("table6.cell", nodes=n_nodes, cpus=cpus)
        for n_nodes, cpu_counts in CONFIGS
        for cpus in (cpu_counts[:1] if fast else cpu_counts)
    )


experiment(
    "table6",
    anchor="Table 6",
    title="OVERFLOW-D multinode NL4 vs InfiniBand",
    heading="Table 6: OVERFLOW-D per-step times across BX2b nodes, NUMAlink4 vs InfiniBand",
    columns=(
        "nodes", "cpus",
        "nl4_comm_s", "nl4_exec_s", "ib_comm_s", "ib_exec_s",
    ),
    scenarios=scenarios,
    notes="NUMAlink4 execution ~10% better; InfiniBand's *reported* "
          "communication lower (asynchronous RDMA completes "
          "off-CPU) — the §4.6.4 inversion.",
)
