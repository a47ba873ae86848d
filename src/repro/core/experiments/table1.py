"""Table 1: characteristics of the Altix node types."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import scenario, workload

__all__ = ["scenarios"]


@workload("table1.rows", fast="exact")
def _rows() -> list[tuple]:
    from repro.machine.specs import table1_rows

    return [
        (
            r.node_type.value, r.n_processors, r.cpus_per_rack,
            r.clock_ghz, r.l3_mb, r.interconnect, r.bandwidth_gb_s,
            round(r.peak_tflops, 2), r.memory_tb,
        )
        for r in table1_rows()
    ]


def scenarios(fast: bool = False):
    return (scenario("table1.rows"),)


experiment(
    "table1",
    anchor="Table 1",
    title="Node characteristics (3700/BX2a/BX2b)",
    heading="Table 1: Characteristics of the Altix nodes used in Columbia",
    columns=(
        "node_type", "processors", "cpus_per_rack", "clock_ghz",
        "l3_mb", "interconnect", "bandwidth_gb_s", "peak_tflops",
        "memory_tb",
    ),
    scenarios=scenarios,
)
