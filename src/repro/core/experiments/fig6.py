"""Fig. 6: NPB per-CPU Gflop/s, MPI and OpenMP, on the three node types."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios", "BENCHMARK_CLASSES"]

#: The paper runs class B/C problems for these comparisons; class B
#: is the size every CPU count in Fig. 6 can hold.
BENCHMARK_CLASSES = {"cg": "B", "ft": "B", "mg": "B", "bt": "B"}

CPU_COUNTS = (4, 8, 16, 32, 64, 128, 256)
FAST_CPU_COUNTS = (4, 32, 256)


@workload("fig6.cell", fast="exact")
def _cell(benchmark: str, npb_class: str, node_type: str, cpus: int) -> list[tuple]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.npb.timing import npb_gflops_per_cpu

    cluster = single_node(NodeType(node_type))
    mpi = npb_gflops_per_cpu(
        benchmark, npb_class, Placement(cluster, n_ranks=cpus), "mpi"
    )
    rows = [(benchmark, "mpi", node_type, cpus, round(mpi, 3))]
    if cpus <= 256:  # OpenMP swept to 256 threads in Fig. 6
        omp = npb_gflops_per_cpu(
            benchmark, npb_class,
            Placement(cluster, n_ranks=1, threads_per_rank=cpus),
            "openmp",
        )
        rows.append((benchmark, "openmp", node_type, cpus, round(omp, 3)))
    return rows


def scenarios(fast: bool = False):
    cells = []
    for bm, cls in BENCHMARK_CLASSES.items():
        cells.extend(sweep(
            "fig6.cell",
            {
                "node_type": ("3700", "BX2a", "BX2b"),
                "cpus": FAST_CPU_COUNTS if fast else CPU_COUNTS,
            },
            base={"benchmark": bm, "npb_class": cls},
        ))
    return tuple(cells)


experiment(
    "fig6",
    anchor="Fig. 6",
    title="NPB per-CPU rates, MPI and OpenMP",
    heading="Fig. 6: NPB per-CPU Gflop/s (MPI and OpenMP) per node type",
    columns=("benchmark", "paradigm", "node_type", "cpus", "gflops_per_cpu"),
    scenarios=scenarios,
    chart=("cpus", "gflops_per_cpu", "node_type", (("benchmark", "ft"), ("paradigm", "mpi"))),
)
