"""Table 2: INS3D runtime per iteration on 3700 and BX2b."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import scenario, workload

__all__ = ["scenarios", "LAYOUTS"]

#: Table 2's layouts: (groups, threads, total CPUs).
LAYOUTS = (
    (1, 1, 1),
    (36, 1, 36),
    (36, 2, 72),
    (36, 4, 144),
    (36, 8, 288),
    (36, 12, 432),
    (36, 14, 504),
)


@workload("table2.cell", fast="exact")
def _cell(groups: int, threads: int, cpus: int) -> list[tuple]:
    from repro.apps.ins3d import INS3DModel
    from repro.machine.node import NodeType

    m37 = INS3DModel(node_type=NodeType.A3700)
    mbx = INS3DModel(node_type=NodeType.BX2B)
    return [(
        cpus,
        f"{groups}x{threads}",
        round(m37.step_time(groups, threads), 1),
        round(mbx.step_time(groups, threads), 1),
    )]


def scenarios(fast: bool = False):
    return tuple(
        scenario("table2.cell", groups=groups, threads=threads, cpus=cpus)
        for groups, threads, cpus in LAYOUTS
    )


experiment(
    "table2",
    anchor="Table 2",
    title="INS3D MLP groups x OpenMP threads",
    heading="Table 2: INS3D runtime per iteration (s), 3700 vs BX2b",
    columns=("cpus", "layout", "t_3700_s", "t_bx2b_s"),
    scenarios=scenarios,
    notes="Layouts are MLP-groups x OpenMP-threads; the paper "
          "reports the 36x12 point only on the 3700 and 36x14 only "
          "on the BX2b.",
)
