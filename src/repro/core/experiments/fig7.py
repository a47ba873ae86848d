"""Fig. 7: pinning versus no pinning for SP-MZ Class C on the BX2b.

Each curve fixes a total CPU count (64 / 128 / 256) and varies the
number of OpenMP threads per MPI process; the y-axis is execution
time, so lower is better.  Pinning helps most in hybrid mode with many
threads; pure process mode (Px1) is least affected.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios", "TOTAL_CPUS", "THREAD_COUNTS"]

TOTAL_CPUS = (64, 128, 256)
THREAD_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: SP-MZ Class C zone count bounds the rank count (set at import of
#: the scenario list, so the `where` filter stays a pure function).
def _fits(point: dict) -> bool:
    from repro.npb.multizone import MZ_CLASSES

    total, t = point["total_cpus"], point["threads_per_proc"]
    ranks = total // t
    if ranks < 1 or ranks * t != total:
        return False
    return ranks <= MZ_CLASSES["C"].n_zones


@workload("fig7.cell", fast="exact")
def _cell(total_cpus: int, threads_per_proc: int) -> list[tuple]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement, PinningMode
    from repro.npb.hybrid import MZTimingModel
    from repro.npb.multizone import MZ_CLASSES

    cluster = single_node(NodeType.BX2B)
    steps = MZ_CLASSES["C"].steps
    ranks = total_cpus // threads_per_proc
    pinned = MZTimingModel(
        "sp-mz", "C",
        Placement(cluster, n_ranks=ranks, threads_per_rank=threads_per_proc),
    ).total_time_per_step() * steps
    unpinned = MZTimingModel(
        "sp-mz", "C",
        Placement(cluster, n_ranks=ranks, threads_per_rank=threads_per_proc,
                  pinning=PinningMode.UNPINNED),
    ).total_time_per_step() * steps
    return [(total_cpus, threads_per_proc, round(pinned, 1), round(unpinned, 1))]


def scenarios(fast: bool = False):
    return sweep(
        "fig7.cell",
        {
            "total_cpus": TOTAL_CPUS[:2] if fast else TOTAL_CPUS,
            "threads_per_proc": THREAD_COUNTS[::2] if fast else THREAD_COUNTS,
        },
        where=_fits,
    )


experiment(
    "fig7",
    anchor="Fig. 7",
    title="SP-MZ pinning vs no pinning",
    heading="Fig. 7: SP-MZ Class C execution time (s), pinning vs no pinning (BX2b)",
    columns=("total_cpus", "threads_per_proc", "pinned_s", "unpinned_s"),
    scenarios=scenarios,
    # MZ_CLASSES["C"].steps, spelled out so declaring the experiment
    # does not import the NPB models.
    notes="Execution time for the full run (200 steps); MPI "
          "processes = total_cpus / threads.",
    chart=("threads_per_proc", "unpinned_s", "total_cpus", ()),
)
