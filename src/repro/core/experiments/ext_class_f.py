"""Extension experiment: Class F and the full 20-node Columbia.

The paper introduces Class F (16384 zones, 12032 x 8960 x 250 — ~27
billion points) "to stress the processors, memory, and network of the
Columbia system" (§3.2) but never publishes a Class F result.  The
machine model shows why it *couldn't* have run where the other
multi-zone tests ran: at ~60 float64 words per point, Class F needs
~13 TB of memory — more than the entire 4-node NUMAlink4 capability
subsystem (4 TB) holds.  Only a 13+-node InfiniBand job fits it, and
over InfiniBand the §2 connection limit forces hybrid layouts.  This
experiment reports the capacity ledger and then runs Class F across
the full 10,240-CPU machine.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.faults import COLUMBIA_DEGRADED
from repro.run import sweep, workload

__all__ = ["scenarios"]


@workload("ext_class_f.capacity", fast="exact")
def _capacity_cell(npb_class: str) -> list[tuple]:
    import math

    from repro.npb.multizone import mz_problem
    from repro.units import TERA

    problem = mz_problem("bt-mz", npb_class)
    tb = problem.memory_bytes / TERA
    min_nodes = max(1, math.ceil(problem.memory_bytes / (1.0 * TERA)))
    return [(
        "capacity", "-",
        f"class {npb_class}: {tb:.2f} TB, >= {min_nodes} node(s)",
        "-", "-", "-", "-",
    )]


@workload("ext_class_f.run", fast="exact")
def _run_cell(benchmark: str, threads: int) -> list[tuple]:
    # Class F across the whole machine: 20 nodes x 512 CPUs over IB.
    # The §2 cap at 20 nodes is sqrt(8*64K/19) = 166 processes/node,
    # so full nodes need >= 4 threads per process.
    from repro.machine.cluster import columbia
    from repro.machine.placement import Placement
    from repro.npb.hybrid import MZTimingModel

    full = columbia(fabric="infiniband")
    ranks_per_node = 512 // threads
    full.infiniband.check_pure_mpi(len(full.nodes), ranks_per_node)
    ranks = ranks_per_node * len(full.nodes)
    pl = Placement(full, n_ranks=ranks, threads_per_rank=threads,
                   spread_nodes=True)
    m = MZTimingModel(benchmark, "F", pl)
    return [(
        "run", benchmark, "20n InfiniBand", 10240,
        f"{ranks}x{threads}",
        round(m.gflops_per_cpu(), 3), round(m.total_gflops(), 0),
    )]


def scenarios(fast: bool = False):
    cells = sweep("ext_class_f.capacity", {"npb_class": ("C", "D", "E", "F")})
    if not fast:
        cells += sweep(
            "ext_class_f.run",
            {"benchmark": ("bt-mz", "sp-mz"), "threads": (4, 8)},
            # Full-machine runs fill every node: the boot-cpuset
            # contention (§4.6.2) applies, as on the real Columbia.
            faults=COLUMBIA_DEGRADED,
        )
    return cells


experiment(
    "ext_class_f",
    anchor="extension",
    title="Extension: Class F on the full Columbia",
    heading="Extension: NPB-MZ Class F — capacity ledger and the full Columbia",
    columns=(
        "row_kind", "benchmark", "detail", "cpus", "layout",
        "gflops_per_cpu", "total_gflops",
    ),
    scenarios=scenarios,
    notes="Capacity rows: memory footprint per class and the "
          "minimum 1 TB nodes it needs — Class F exceeds the "
          "whole 4-node NUMAlink4 subsystem, which is why the "
          "paper could not have measured it there.  Run rows: "
          "Class F across all 20 nodes over InfiniBand (hybrid "
          "layouts per the §2 connection limit).",
)
