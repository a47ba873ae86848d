"""Fig. 5: b_eff bandwidth and latency on 3700 / BX2a / BX2b.

Three patterns (ping-pong, natural ring, random ring) swept over CPU
counts within a single node of each type — the paper's single-box
interconnect comparison.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import MachineSpec, PlacementSpec, sweep, workload

__all__ = ["scenarios", "CPU_COUNTS"]

CPU_COUNTS = (4, 8, 16, 32, 64, 128, 256, 512)
FAST_CPU_COUNTS = (4, 16, 64)


@workload("fig5.cell", fast="exact")
def _cell(placement, node_type: str, cpus: int, max_pairs: int,
          trials: int) -> list[tuple]:
    from repro.hpcc import natural_ring, pingpong, random_ring
    from repro.units import to_gb_per_s, to_usec

    pp = pingpong(placement, max_pairs=max_pairs)
    nr = natural_ring(placement)
    rr = random_ring(placement, trials=trials)
    return [
        (node_type, cpus, "pingpong",
         round(to_usec(pp.avg_latency), 2),
         round(to_gb_per_s(pp.avg_bandwidth), 2)),
        (node_type, cpus, "natural_ring",
         round(to_usec(nr.latency), 2),
         round(to_gb_per_s(nr.bandwidth_per_cpu), 2)),
        (node_type, cpus, "random_ring",
         round(to_usec(rr.latency), 2),
         round(to_gb_per_s(rr.bandwidth_per_cpu), 2)),
    ]


def scenarios(fast: bool = False):
    return sweep(
        "fig5.cell",
        {
            "node_type": ("3700", "BX2a", "BX2b"),
            "cpus": FAST_CPU_COUNTS if fast else CPU_COUNTS,
        },
        base={"max_pairs": 8 if fast else 16, "trials": 1 if fast else 3},
        machine=lambda p: MachineSpec.legacy(node_type=p["node_type"]),
        placement=lambda p: PlacementSpec(n_ranks=p["cpus"]),
    )


experiment(
    "fig5",
    anchor="Fig. 5",
    title="b_eff latency/bandwidth per node type",
    heading="Fig. 5: b_eff latency (us) and bandwidth (GB/s) per node type",
    columns=(
        "node_type", "cpus", "pattern", "latency_us", "bandwidth_gb_s",
    ),
    scenarios=scenarios,
    chart=("cpus", "bandwidth_gb_s", "node_type", (("pattern", "random_ring"),)),
)
