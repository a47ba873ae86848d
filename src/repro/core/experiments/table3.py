"""Table 3: OVERFLOW-D communication and execution time per step,
3700 vs BX2b (single node)."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios", "CPU_COUNTS"]

CPU_COUNTS = (32, 64, 128, 256, 508)


@workload("table3.cell", fast="exact")
def _cell(cpus: int) -> list[tuple]:
    from repro.apps.overflow import OverflowModel
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType

    m37 = OverflowModel(cluster=single_node(NodeType.A3700))
    mbx = OverflowModel(cluster=single_node(NodeType.BX2B))
    s37 = m37.best_step_time(cpus)
    sbx = mbx.best_step_time(cpus)
    return [(
        cpus,
        round(s37.comm, 2), round(s37.exec, 2),
        round(m37.efficiency(cpus), 3),
        round(sbx.comm, 2), round(sbx.exec, 2),
        round(mbx.efficiency(cpus), 3),
    )]


def scenarios(fast: bool = False):
    counts = CPU_COUNTS[:3] if fast else CPU_COUNTS
    return sweep("table3.cell", {"cpus": counts})


experiment(
    "table3",
    anchor="Table 3",
    title="OVERFLOW-D 3700 vs BX2b scaling",
    heading="Table 3: OVERFLOW-D per-step times (s), 3700 vs BX2b",
    columns=(
        "cpus",
        "comm_3700_s", "exec_3700_s", "eff_3700",
        "comm_bx2b_s", "exec_bx2b_s", "eff_bx2b",
    ),
    scenarios=scenarios,
    notes="Best process/thread combination per CPU count, as the "
          "paper reports; a production run needs ~50,000 steps.",
)
