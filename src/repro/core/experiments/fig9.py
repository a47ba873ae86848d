"""Fig. 9: effects of varying MPI processes and OpenMP threads on
BT-MZ (one BX2b node).

Left panel: fixed threads, sweep processes (MPI scales near-linearly
until load imbalance).  Right panel: fixed processes, sweep threads
(OpenMP limited beyond two threads).
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.faults import COLUMBIA_DEGRADED
from repro.run import sweep, workload

__all__ = ["scenarios"]

PROCESS_COUNTS = (1, 4, 16, 64, 256)
THREAD_COUNTS = (1, 2, 4, 8, 16)


def _fits(point: dict) -> bool:
    from repro.npb.multizone import MZ_CLASSES

    p, t = point["processes"], point["threads"]
    return p <= MZ_CLASSES["C"].n_zones and p * t <= 512


@workload("fig9.cell", fast="exact")
def _cell(processes: int, threads: int) -> list[tuple]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.npb.hybrid import MZTimingModel

    cluster = single_node(NodeType.BX2B)
    m = MZTimingModel(
        "bt-mz", "C",
        Placement(cluster, n_ranks=processes, threads_per_rank=threads),
    )
    return [(processes, threads, processes * threads,
             round(m.total_gflops(), 1), round(m.imbalance(), 2))]


def scenarios(fast: bool = False):
    return sweep(
        "fig9.cell",
        {
            "processes": PROCESS_COUNTS[1:4] if fast else PROCESS_COUNTS,
            "threads": THREAD_COUNTS[:3] if fast else THREAD_COUNTS,
        },
        where=_fits,
        # Full-node (512-CPU) combinations pay the boot-cpuset
        # contention the paper's Columbia had (§4.6.2) — injected, so
        # a healthy-machine sweep of the same grid shows none of it.
        faults=COLUMBIA_DEGRADED,
    )


experiment(
    "fig9",
    anchor="Fig. 9",
    title="BT-MZ process x thread combinations",
    heading="Fig. 9: BT-MZ Class C total Gflop/s for process x thread combinations (BX2b)",
    columns=("processes", "threads", "total_cpus", "total_gflops", "imbalance"),
    scenarios=scenarios,
    chart=("total_cpus", "total_gflops", "processes", ()),
)
