"""Fig. 8: performance of four Intel compiler versions on the OpenMP
NPBs (BX2b, -O3 -openmp)."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios", "THREAD_COUNTS"]

THREAD_COUNTS = (4, 8, 16, 32, 64, 128, 256)
FAST_THREAD_COUNTS = (4, 16, 64)


@workload("fig8.cell", fast="exact")
def _cell(benchmark: str, threads: int) -> list[tuple]:
    from repro.machine.cluster import single_node
    from repro.machine.compilers import Compiler
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.npb.timing import npb_gflops_per_cpu

    cluster = single_node(NodeType.BX2B)
    pl = Placement(cluster, n_ranks=1, threads_per_rank=threads)
    rates = [
        round(npb_gflops_per_cpu(benchmark, "B", pl, "openmp", compiler), 3)
        for compiler in (
            Compiler.V7_1, Compiler.V8_0, Compiler.V8_1, Compiler.V9_0B
        )
    ]
    return [(benchmark, threads, *rates)]


def scenarios(fast: bool = False):
    return sweep(
        "fig8.cell",
        {
            "benchmark": ("cg", "ft", "mg", "bt"),
            "threads": FAST_THREAD_COUNTS if fast else THREAD_COUNTS,
        },
    )


experiment(
    "fig8",
    anchor="Fig. 8",
    title="Four compiler versions on OpenMP NPB",
    heading="Fig. 8: OpenMP NPB per-CPU Gflop/s under compilers 7.1/8.0/8.1/9.0b (BX2b)",
    columns=("benchmark", "threads", "v7_1", "v8_0", "v8_1", "v9_0b"),
    scenarios=scenarios,
    chart=("threads", "v7_1", "benchmark", ()),
)
