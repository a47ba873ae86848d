"""Table 5: molecular dynamics weak scaling over NUMAlink4."""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios", "PROC_COUNTS"]

PROC_COUNTS = (1, 8, 64, 252, 504, 1020, 2040)


@workload("table5.cell", fast="exact")
def _cell(processors: int, steps: int) -> list[tuple]:
    from repro.apps.md.scaling import MDScalingModel

    model = MDScalingModel()
    return [
        (
            row["processors"],
            row["particles"],
            round(row["time_per_step"], 3),
            round(row["total_time"], 1),
            round(row["efficiency"], 3),
        )
        for row in model.table5(proc_counts=(processors,), steps=steps)
    ]


def scenarios(fast: bool = False):
    counts = PROC_COUNTS[::3] if fast else PROC_COUNTS
    return sweep("table5.cell", {"processors": counts}, base={"steps": 100})


experiment(
    "table5",
    anchor="Table 5",
    title="MD weak scaling to 2040 CPUs",
    heading="Table 5: MD weak scaling (64,000 atoms per CPU, 100 steps, NUMAlink4)",
    columns=(
        "processors", "particles", "time_per_step_s",
        "total_time_s", "efficiency",
    ),
    scenarios=scenarios,
    notes="§4.6.3: 'almost perfect scalability all the way up to "
          "2040 processors'; 130.56 million atoms at the top end.",
    chart=("processors", "time_per_step_s", "particles", ()),
)
