"""Table 4: INS3D and OVERFLOW-D under Intel Fortran 7.1 vs 8.1."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.faults import COLUMBIA_DEGRADED
from repro.run import scenario, sweep, workload

__all__ = ["scenarios"]


@workload("table4.ins3d", fast="exact")
def _ins3d_cell() -> list[tuple]:
    from repro.apps.ins3d import INS3DModel
    from repro.machine.compilers import Compiler
    from repro.machine.node import NodeType

    # INS3D: negligible difference.
    t71 = INS3DModel(node_type=NodeType.BX2B, compiler=Compiler.V7_1).step_time(36, 4)
    t81 = INS3DModel(node_type=NodeType.BX2B, compiler=Compiler.V8_1).step_time(36, 4)
    return [("INS3D", 144, round(t71, 1), round(t81, 1), round(t81 / t71, 3))]


@workload("table4.overflow", fast="exact")
def _overflow_cell(cpus: int) -> list[tuple]:
    from repro.apps.overflow import OverflowModel
    from repro.machine.cluster import single_node
    from repro.machine.compilers import Compiler
    from repro.machine.node import NodeType

    # OVERFLOW-D on the 3700: 7.1 wins 20-40% below 64 CPUs.  The
    # compiler factor keys off the job size; build a cluster just big
    # enough so small runs register as small.
    cluster = single_node(NodeType.A3700, max(32, cpus))
    t71 = OverflowModel(cluster=cluster, compiler=Compiler.V7_1).best_step_time(cpus).exec
    t81 = OverflowModel(cluster=cluster, compiler=Compiler.V8_1).best_step_time(cpus).exec
    return [("OVERFLOW-D", cpus, round(t71, 2), round(t81, 2), round(t81 / t71, 3))]


def scenarios(fast: bool = False):
    counts = (16, 32) if fast else (16, 32, 64, 128, 256)
    # The paper's 3700 runs filled their nodes, so the boot-cpuset
    # contention (§4.6.2) was in every measurement: injected here.
    return (scenario("table4.ins3d"),) + sweep(
        "table4.overflow", {"cpus": counts}, faults=COLUMBIA_DEGRADED
    )


experiment(
    "table4",
    anchor="Table 4",
    title="INS3D/OVERFLOW-D under Fortran 7.1 vs 8.1",
    heading="Table 4: INS3D and OVERFLOW-D with Fortran 7.1 vs 8.1",
    columns=("application", "cpus", "t_71_s", "t_81_s", "ratio_81_over_71"),
    scenarios=scenarios,
    notes="INS3D on the BX2b (36 groups x 4 threads); OVERFLOW-D "
          "on the 3700, as in the paper.",
)
