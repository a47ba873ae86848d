"""Fig. 10: multinode b_eff — NUMAlink4 vs InfiniBand across BX2b nodes.

Latency and bandwidth for ping-pong / natural ring / random ring at
64-2048 CPUs spread over one, two or four nodes, under each fabric.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import MachineSpec, PlacementSpec, sweep, workload

__all__ = ["scenarios", "CONFIGS"]

#: (label, n_nodes, fabric) — one node has no inter-node fabric.
CONFIGS = (
    ("1 node", 1, None),
    ("2n NUMAlink4", 2, "numalink4"),
    ("4n NUMAlink4", 4, "numalink4"),
    ("2n InfiniBand", 2, "infiniband"),
    ("4n InfiniBand", 4, "infiniband"),
)

CPU_COUNTS = (64, 256, 512, 1024, 2048)
FAST_CPU_COUNTS = (64, 512)


def _fits(point: dict) -> bool:
    cpus, n_nodes = point["cpus"], point["n_nodes"]
    if cpus > n_nodes * 512:
        return False
    return not (n_nodes > 1 and cpus < n_nodes)


@workload("fig10.cell", fast="exact")
def _cell(placement, config: str, n_nodes: int, fabric: str | None,
          cpus: int, max_pairs: int, trials: int) -> list[tuple]:
    from repro.hpcc import natural_ring, pingpong, random_ring
    from repro.units import to_gb_per_s, to_usec

    pp = pingpong(placement, max_pairs=max_pairs)
    nr = natural_ring(placement)
    rr = random_ring(placement, trials=trials)
    return [
        (config, cpus, "pingpong",
         round(to_usec(pp.avg_latency), 2),
         round(to_gb_per_s(pp.avg_bandwidth), 3)),
        (config, cpus, "natural_ring",
         round(to_usec(nr.latency), 2),
         round(to_gb_per_s(nr.bandwidth_per_cpu), 3)),
        (config, cpus, "random_ring",
         round(to_usec(rr.latency), 2),
         round(to_gb_per_s(rr.bandwidth_per_cpu), 3)),
    ]


def _machine(point: dict) -> MachineSpec:
    if point["n_nodes"] == 1:
        return MachineSpec.legacy(node_type="BX2b")
    return MachineSpec.legacy(
        node_type="BX2b", n_nodes=point["n_nodes"], fabric=point["fabric"]
    )


def scenarios(fast: bool = False):
    cells = []
    for label, n_nodes, fabric in CONFIGS:
        cells.extend(sweep(
            "fig10.cell",
            {"cpus": FAST_CPU_COUNTS if fast else CPU_COUNTS},
            base={
                "config": label, "n_nodes": n_nodes, "fabric": fabric,
                "max_pairs": 8 if fast else 16,
                "trials": 1 if fast else 2,
            },
            where=_fits,
            machine=_machine,
            placement=lambda p: PlacementSpec(
                n_ranks=p["cpus"], spread_nodes=p["n_nodes"] > 1
            ),
        ))
    return tuple(cells)


experiment(
    "fig10",
    anchor="Fig. 10",
    title="Multinode b_eff: NUMAlink4 vs InfiniBand",
    heading="Fig. 10: multinode b_eff, NUMAlink4 vs InfiniBand (BX2b nodes)",
    columns=(
        "config", "cpus", "pattern", "latency_us", "bandwidth_gb_s",
    ),
    scenarios=scenarios,
    chart=("cpus", "latency_us", "config", (("pattern", "pingpong"),)),
)
